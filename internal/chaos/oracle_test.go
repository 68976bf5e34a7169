package chaos

import "testing"

// TestValueCodec pins the self-validating codec: round-trips decode,
// and every single-byte corruption is caught.
func TestValueCodec(t *testing.T) {
	var buf []byte
	for k := 0; k < 32; k++ {
		for ver := uint64(1); ver <= 8; ver++ {
			buf = EncodeVal(buf, k, ver)
			got, err := DecodeVal(k, buf)
			if err != nil || got != ver {
				t.Fatalf("key %d ver %d: got %d, %v", k, ver, got, err)
			}
			if _, err := DecodeVal(k+1, buf); err == nil {
				t.Fatalf("key %d ver %d: accepted under wrong key", k, ver)
			}
		}
	}
	buf = EncodeVal(buf, 3, 5)
	for i := range buf {
		buf[i] ^= 0x40
		if _, err := DecodeVal(3, buf); err == nil {
			t.Fatalf("corruption at byte %d not detected", i)
		}
		buf[i] ^= 0x40
	}
	if _, err := DecodeVal(3, buf[:len(buf)-1]); err == nil {
		t.Fatal("truncation not detected")
	}
}
