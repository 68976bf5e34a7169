package alloc

import "cxlalloc/internal/core"

// CXL adapts a core.Heap (cxlalloc proper) to the harness interface.
type CXL struct {
	heap *core.Heap
	name string
}

// NewCXL wraps heap. name distinguishes configuration variants in the
// evaluation ("cxlalloc", "cxlalloc-nonrecoverable", "cxlalloc-mcas").
func NewCXL(heap *core.Heap, name string) *CXL {
	return &CXL{heap: heap, name: name}
}

// Heap returns the wrapped heap.
func (c *CXL) Heap() *core.Heap { return c.heap }

func (c *CXL) Name() string { return c.name }

func (c *CXL) Alloc(tid int, size int) (Ptr, error) {
	return c.heap.Alloc(tid, size)
}

func (c *CXL) Free(tid int, p Ptr) { c.heap.Free(tid, p) }

func (c *CXL) FreeBatch(tid int, ps *[]Ptr) { c.heap.FreeBatch(tid, ps) }

func (c *CXL) AllocFreeing(tid int, size int, ps *[]Ptr) (Ptr, error) {
	return c.heap.AllocFreeing(tid, size, ps)
}

func (c *CXL) FreeOwing(tid int, ps *[]Ptr, keep int) { c.heap.FreeOwing(tid, ps, keep) }

func (c *CXL) Bytes(tid int, p Ptr, n int) []byte {
	return c.heap.Bytes(tid, p, n)
}

func (c *CXL) AccessHook(int, Ptr) {}

func (c *CXL) Maintain(tid int) { c.heap.Maintain(tid) }

func (c *CXL) Footprint() Footprint {
	f := c.heap.Footprint(0)
	return Footprint{
		DataBytes: f.DataBytes,
		MetaBytes: f.MetaBytes,
		HWccBytes: f.HWccBytes,
	}
}

func (c *CXL) Properties() Properties {
	return Properties{
		Name:            c.name,
		Memory:          "XP, CXL",
		CrossProcess:    true,
		Mmap:            true,
		FailNonBlocking: true,
		Recovery:        "NB",
		Strategy:        "App",
	}
}
