package main

import (
	"encoding/binary"
	"errors"

	"cxlalloc/internal/xrand"
)

// Values are self-validating, so a get can be checked without knowing
// which write it observed: a 32-byte header names the key, the writing
// connection, that connection's write sequence number and the value's
// total length, sealed by a checksum; every body byte is a function of
// the header, so a torn or misdirected copy cannot validate.
//
//	[0:8)   key id
//	[8:16)  connection<<56 | sequence
//	[16:24) total length
//	[24:32) checksum of the three words above
//	[32:n)  body: word i = base + i*bodyStep, base derived from the checksum
const (
	hdrLen   = 32
	bodyStep = 0x9e3779b97f4a7c15
	// preloadConn marks values written by set-up rather than a connection.
	preloadConn = 0xff
)

var (
	errShort = errors.New("value shorter than its header")
	errKey   = errors.New("value belongs to another key")
	errLen   = errors.New("value length differs from the length it was written with")
	errSum   = errors.New("value header checksum mismatch")
	errBody  = errors.New("value body mismatch")
)

func headerSum(keyID, connSeq, n uint64) uint64 {
	return xrand.Mix(keyID ^ xrand.Mix(connSeq^xrand.Mix(n)))
}

// encodeValue fills dst (whose length is the value length, at least
// hdrLen) with the value connection conn writes to keyID as its seq-th
// write.
func encodeValue(dst []byte, keyID uint64, conn uint8, seq uint64) {
	connSeq := uint64(conn)<<56 | seq&(1<<56-1)
	n := uint64(len(dst))
	sum := headerSum(keyID, connSeq, n)
	binary.LittleEndian.PutUint64(dst[0:], keyID)
	binary.LittleEndian.PutUint64(dst[8:], connSeq)
	binary.LittleEndian.PutUint64(dst[16:], n)
	binary.LittleEndian.PutUint64(dst[24:], sum)
	w := xrand.Mix(sum)
	body := dst[hdrLen:]
	for len(body) >= 8 {
		binary.LittleEndian.PutUint64(body, w)
		w += bodyStep
		body = body[8:]
	}
	for i := range body {
		body[i] = byte(w >> (8 * uint(i)))
	}
}

// checkValue validates val as a value of keyID and returns who wrote it.
func checkValue(val []byte, keyID uint64) (conn uint8, seq uint64, err error) {
	if len(val) < hdrLen {
		return 0, 0, errShort
	}
	id := binary.LittleEndian.Uint64(val[0:])
	connSeq := binary.LittleEndian.Uint64(val[8:])
	n := binary.LittleEndian.Uint64(val[16:])
	sum := binary.LittleEndian.Uint64(val[24:])
	switch {
	case sum != headerSum(id, connSeq, n):
		return 0, 0, errSum
	case id != keyID:
		return 0, 0, errKey
	case n != uint64(len(val)):
		return 0, 0, errLen
	}
	w := xrand.Mix(sum)
	body := val[hdrLen:]
	for len(body) >= 8 {
		if binary.LittleEndian.Uint64(body) != w {
			return 0, 0, errBody
		}
		w += bodyStep
		body = body[8:]
	}
	for i := range body {
		if body[i] != byte(w>>(8*uint(i))) {
			return 0, 0, errBody
		}
	}
	return uint8(connSeq >> 56), connSeq & (1<<56 - 1), nil
}
