package wire

import "sync"

// Buffer ownership rules
//
// The pools below back the RPC hot path. Correct reuse depends on a
// small set of ownership rules, stated here once:
//
//   - Encoder frames: the frame returned by Encoder.Bytes is owned by
//     the encoder. A transport.Conn must not retain it after Send
//     returns (every conn either copies or writes synchronously), so
//     the sender may PutEncoder immediately after Send.
//
//   - Received frames: a frame returned by Conn.Recv is owned by the
//     receiver. Decoded messages may alias it (Decoder.Bytes32 does
//     not copy), so a handler that retains payload bytes past its
//     return must copy them; the rpc layer is then free to recycle
//     the frame.
//
//   - GetBuf/PutBuf: the caller that Gets a buffer owns it until it
//     either Puts it back or hands it to a message that implements
//     Recycler, in which case the rpc layer calls Recycle once the
//     bytes are on the wire.
//
// Pools are size-classed so one 16 MB flush frame does not pin a pool
// slot that every 30-byte lock request then inherits: Get draws from
// the smallest class that fits, Put files the buffer under the largest
// class it can still serve fully.

// classes are the pooled buffer capacities. Requests larger than the
// top class fall through to plain allocation.
var classes = [...]int{256, 4 << 10, 64 << 10, 1 << 20, 16 << 20}

var encPools [len(classes)]sync.Pool

// classFor returns the index of the smallest class that holds n bytes,
// or -1 when n exceeds the largest class.
func classFor(n int) int {
	for i, c := range classes {
		if n <= c {
			return i
		}
	}
	return -1
}

// classUnder returns the index of the largest class a buffer of
// capacity c can fully serve, or -1 when c is below the smallest class.
func classUnder(c int) int {
	for i := len(classes) - 1; i >= 0; i-- {
		if c >= classes[i] {
			return i
		}
	}
	return -1
}

// MaxPresized is the largest frame a sender presizes from a message's
// EncodedSize; the 1 MiB class is the largest one it draws from. Larger
// frames start small and grow by append, for two measured reasons.
// Presizing them from the 16 MiB class pins 16 MiB per in-flight
// 1.75 MB flush frame, which took the segmented-write benchmark's peak
// RSS from 685 to 1,440 MiB. Presizing them exactly cost about 6% more
// CPU per op than growing them, because make zeroes the whole buffer
// up front.
const MaxPresized = 1 << 20

// Reset truncates the encoder for reuse, keeping its buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// GetEncoder returns a pooled encoder with capacity for at least n
// bytes. Pair with PutEncoder once the frame is no longer referenced.
func GetEncoder(n int) *Encoder {
	i := classFor(n)
	if i < 0 {
		return NewEncoder(n)
	}
	if v := encPools[i].Get(); v != nil {
		e := v.(*Encoder)
		e.Reset()
		return e
	}
	return NewEncoder(classes[i])
}

// PutEncoder recycles an encoder obtained from GetEncoder. The caller
// must not touch the encoder or any frame it returned afterwards.
func PutEncoder(e *Encoder) {
	i := classUnder(cap(e.buf))
	if i < 0 {
		return
	}
	encPools[i].Put(e)
}

var bufPools [len(classes)]sync.Pool

// GetBuf returns a length-n byte slice drawn from the size-classed
// pools (plain allocation beyond the largest class).
func GetBuf(n int) []byte {
	i := classFor(n)
	if i < 0 {
		return make([]byte, n)
	}
	if v := bufPools[i].Get(); v != nil {
		return (*v.(*[]byte))[:n]
	}
	return make([]byte, classes[i])[:n]
}

// PutBuf recycles a buffer obtained from GetBuf. The caller must not
// touch it afterwards.
func PutBuf(b []byte) {
	i := classUnder(cap(b))
	if i < 0 {
		return
	}
	b = b[:0]
	bufPools[i].Put(&b)
}

// Recycler is implemented by messages whose payload rides in a pooled
// buffer. The rpc layer calls Recycle exactly once, after the encoded
// response frame is on the wire, returning the buffer to its pool.
type Recycler interface{ Recycle() }
