package main

import (
	"errors"
	"testing"
)

func TestValueRoundTrip(t *testing.T) {
	for _, n := range []int{hdrLen, hdrLen + 1, 64, 67, 960, 16 << 10} {
		v := make([]byte, n)
		encodeValue(v, 42, 1, 7)
		conn, seq, err := checkValue(v, 42)
		if err != nil || conn != 1 || seq != 7 {
			t.Fatalf("len %d: conn %d seq %d err %v", n, conn, seq, err)
		}
	}
}

func TestValueRejections(t *testing.T) {
	long := make([]byte, 200)
	encodeValue(long, 42, 0, 9)
	short := make([]byte, 120)
	encodeValue(short, 42, 1, 3)

	torn := append([]byte(nil), long...)
	torn[150] ^= 1
	tail := append([]byte(nil), long...)
	tail[199] ^= 0x80
	hdr := append([]byte(nil), long...)
	hdr[9] ^= 1 // the sequence, under the checksum
	// A reader that pairs a newer node's length with an older value's bytes,
	// or the other way round.
	staleLonger := append(append([]byte(nil), short...), long[120:]...)

	cases := []struct {
		name string
		val  []byte
		key  uint64
		want error
	}{
		{"cross-key", long, 43, errKey},
		{"truncated", long[:120], 42, errLen},
		{"truncated into the header", long[:20], 42, errShort},
		{"stale length, longer", staleLonger, 42, errLen},
		{"torn body", torn, 42, errBody},
		{"torn tail byte", tail, 42, errBody},
		{"header bit flip", hdr, 42, errSum},
	}
	for _, c := range cases {
		if _, _, err := checkValue(c.val, c.key); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}
