package core

import (
	"testing"
	"testing/quick"
)

func TestSmallClassCoversRange(t *testing.T) {
	for size := 1; size <= smallMax; size++ {
		c := smallClassOf(size)
		if c < 1 || c > numSmallClasses {
			t.Fatalf("smallClassOf(%d) = %d out of range", size, c)
		}
		if smallClassSizes[c] < size {
			t.Fatalf("smallClassOf(%d) = %d but class size %d < size", size, c, smallClassSizes[c])
		}
		if c > 1 && smallClassSizes[c-1] >= size {
			t.Fatalf("smallClassOf(%d) = %d not tight: class %d size %d also fits",
				size, c, c-1, smallClassSizes[c-1])
		}
	}
}

func TestLargeClassCoversRange(t *testing.T) {
	for size := smallMax + 1; size <= largeMax; size += 509 {
		c := largeClassOf(size)
		if c < 1 || c > numLargeClasses {
			t.Fatalf("largeClassOf(%d) = %d out of range", size, c)
		}
		if largeClassSizes[c] < size {
			t.Fatalf("largeClassOf(%d) gives class size %d < size", size, largeClassSizes[c])
		}
		if c > 1 && largeClassSizes[c-1] >= size {
			t.Fatalf("largeClassOf(%d) = %d not tight", size, c)
		}
	}
	if got := largeClassOf(largeMax); largeClassSizes[got] != largeMax {
		t.Fatalf("largeClassOf(max) = %d", got)
	}
}

func TestInternalFragmentationBound(t *testing.T) {
	// Waste must stay at or below 50% of the requested size for sizes
	// >= 8 (slab-class guarantee; classes are at most 1.5x apart).
	f := func(raw uint16) bool {
		size := int(raw%smallMax) + 8
		if size > smallMax {
			size = smallMax
		}
		got := smallClassSizes[smallClassOf(size)]
		return got >= size && got <= size*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestClassSizesMonotone(t *testing.T) {
	for c := 2; c < len(smallClassSizes); c++ {
		if smallClassSizes[c] <= smallClassSizes[c-1] {
			t.Fatalf("small classes not increasing at %d", c)
		}
	}
	for c := 2; c < len(largeClassSizes); c++ {
		if largeClassSizes[c] <= largeClassSizes[c-1] {
			t.Fatalf("large classes not increasing at %d", c)
		}
	}
	if smallClassSizes[numSmallClasses] != smallMax {
		t.Fatalf("last small class %d != smallMax", smallClassSizes[numSmallClasses])
	}
	if largeClassSizes[numLargeClasses] != largeMax {
		t.Fatalf("last large class %d != largeMax", largeClassSizes[numLargeClasses])
	}
}

func TestLayoutDisjointAndAligned(t *testing.T) {
	cfg := testConfig()
	l := computeLayout(&cfg)
	// HWcc regions in order, no overlap.
	if !(l.SmallLenW < l.SmallFreeW && l.SmallFreeW < l.LargeLenW &&
		l.ReservBase < l.HelpBase && l.HelpBase < l.SmallHWBase &&
		l.SmallHWBase+cfg.MaxSmallSlabs <= l.LargeHWBase &&
		l.LargeHWBase+cfg.MaxLargeSlabs <= l.HWccWords) {
		t.Fatalf("HWcc layout overlaps: %+v", l)
	}
	// SWcc strides line-aligned.
	for _, s := range []int{l.SmallLocalStride, l.LargeLocalStride, l.SmallDescStride, l.LargeDescStride, l.HugeLocalStride} {
		if s%lineWords != 0 {
			t.Fatalf("stride %d not line aligned", s)
		}
	}
	if l.OplogBase%lineWords != 0 {
		t.Fatal("oplog base not line aligned")
	}
	// Data regions in order with a guard page.
	if l.SmallDataOff != uint64(PageSize) {
		t.Fatalf("guard page missing: small data at %d", l.SmallDataOff)
	}
	if !(l.SmallDataOff < l.LargeDataOff && l.LargeDataOff < l.HugeDataOff && l.HugeDataOff < l.DataBytes) {
		t.Fatalf("data layout out of order: %+v", l)
	}
	// Bitsets must cover the densest class.
	if l.SmallBitsetWords*64 < SmallSlabSize/smallMin {
		t.Fatal("small bitset too small")
	}
	if l.LargeBitsetWords*64 < LargeSlabSize/largeClassSizes[1] {
		t.Fatal("large bitset too small")
	}
}

func TestConfigValidation(t *testing.T) {
	bads := []func(*Config){
		func(c *Config) { c.NumThreads = 0 },
		func(c *Config) { c.NumThreads = 1000 },
		func(c *Config) { c.MaxSmallSlabs = 0 },
		func(c *Config) { c.HugeRegionSize = 100 },
		func(c *Config) { c.NumReservations = 0 },
		func(c *Config) { c.DescsPerThread = 0 },
		func(c *Config) { c.NumHazards = -1 },
		func(c *Config) { c.NumHazards = 65 }, // the hazard mask is one word
		func(c *Config) { c.UnsizedThreshold = 0 },
		func(c *Config) { c.DescsPerThread = 1 << 20 },
	}
	for i, mutate := range bads {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	cfg := DefaultConfig()
	if err := cfg.validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestOpPackUnpack(t *testing.T) {
	f := func(opRaw uint8, a uint32, b uint16, ver uint16) bool {
		op := int(opRaw) % 64
		w := packOp(op, a&opAMask, b, ver)
		gop, ga, gb, gver := unpackOp(w)
		return gop == op && ga == a&opAMask && gb == b && gver == ver
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if opName(opExtend) != "extend" || opName(opExtend|opLargeBit) != "large.extend" {
		t.Fatalf("opName wrong: %q %q", opName(opExtend), opName(opExtend|opLargeBit))
	}
	if opName(opHugeReclaim) != "huge-reclaim" {
		t.Fatalf("opName(opHugeReclaim) = %q", opName(opHugeReclaim))
	}
}
