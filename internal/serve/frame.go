// Package serve is the network-facing trigger plane: a TCP listener that
// turns framed batches of triggering stores from many concurrent client
// sessions into TStoreBatch calls on a shared runtime, and streams
// support-thread outputs back as change notifications — the pub/sub dual
// of the triggering store.
//
// The wire protocol is a compact length-prefixed binary framing:
//
//	frame  := length uint32 | opcode uint8 | payload
//
// All integers are big-endian. length counts the opcode byte plus the
// payload (so every valid frame has length >= 1) and is capped at
// MaxFrame; the decoder rejects anything larger before allocating. Every
// request opcode is answered with a reply frame of the same opcode, or
// with an ERROR frame when the request was semantically invalid (the
// session stays open). Framing violations — bad magic, oversized length,
// unknown opcode, truncated payload — close the connection.
package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Protocol constants.
const (
	// Magic opens every HELLO request: "DTT1".
	Magic uint32 = 0x44545431
	// Version is the protocol version spoken by this package. Version 2
	// added the cumulative dropped count to CHANGE_NOTIFY (notification
	// shedding became detectable in-band instead of a server-side counter
	// only) and the READ opcode subscribers use to re-establish a
	// consistent view after a gap. Both sides speak exactly one version;
	// a version-1 peer is refused at HELLO rather than silently fed
	// frames whose payload shape it would misparse.
	Version uint16 = 2
	// MaxFrame bounds length (opcode + payload). A TSTORE_BATCH of
	// MaxFrame bytes carries ~128k words, far above any batch the span
	// path can amortise further, and small enough that a hostile length
	// prefix cannot balloon the decoder's buffer.
	MaxFrame = 1 << 20
	// maxRegionWords bounds the region size an ATTACH may request, checked
	// before anything is allocated: ATTACH carries the size as a u32, and
	// without a bound one frame could make the server allocate up to 32 GiB.
	// At MaxFrame/8 it is just above the words one TSTORE_BATCH frame can
	// carry, so every batch the wire admits fits in an attachable region.
	maxRegionWords = MaxFrame / 8
	// headerLen is the fixed prefix: length u32 + opcode u8.
	headerLen = 5
)

// Opcodes. Replies reuse the request opcode; CHANGE_NOTIFY and ERROR are
// server-originated.
const (
	OpHello        byte = 1  // req: magic u32 | version u16     → reply: session u32
	OpAttach       byte = 2  // req: words u32 | lo u32 | hi u32 | nameLen u16 | name → reply: handle u32
	OpTStoreBatch  byte = 3  // req: handle u32 | lo u32 | n u32 | n×8B words → reply: changed u32
	OpWait         byte = 4  // req: handle u32 → reply: empty
	OpBarrier      byte = 5  // req: empty → reply: empty
	OpSubscribe    byte = 6  // req: handle u32 → reply: empty
	OpChangeNotify byte = 7  // server→client: handle u32 | index u32 | value u64 | dropped u32
	OpError        byte = 8  // server→client: msgLen u16 | msg
	OpTUpdate      byte = 9  // req: handle u32 | op u8 | lo u32 | n u32 | n×8B operands → reply: applied u32
	OpRead         byte = 10 // req: handle u32 | lo u32 | n u32 → reply: n u32 | n×8B words
)

// opName returns a human-readable opcode name for error messages.
func opName(op byte) string {
	switch op {
	case OpHello:
		return "HELLO"
	case OpAttach:
		return "ATTACH"
	case OpTStoreBatch:
		return "TSTORE_BATCH"
	case OpWait:
		return "WAIT"
	case OpBarrier:
		return "BARRIER"
	case OpSubscribe:
		return "SUBSCRIBE"
	case OpChangeNotify:
		return "CHANGE_NOTIFY"
	case OpError:
		return "ERROR"
	case OpTUpdate:
		return "TUPDATE"
	case OpRead:
		return "READ"
	}
	return fmt.Sprintf("opcode %d", op)
}

// frameReader decodes frames from a byte stream into a reused buffer. The
// returned payload aliases the buffer and is valid until the next
// ReadFrame. The buffer never exceeds MaxFrame bytes: a hostile or
// corrupt length prefix is rejected before any allocation happens.
type frameReader struct {
	r   io.Reader
	hdr [headerLen]byte
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader { return &frameReader{r: r} }

// ReadFrame reads one frame, returning its opcode and payload. io.EOF is
// returned only on a clean boundary (no bytes of a new frame read);
// mid-frame truncation is io.ErrUnexpectedEOF.
func (fr *frameReader) ReadFrame() (op byte, payload []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("serve: truncated frame header: %w", err)
		}
		return 0, nil, err
	}
	length := binary.BigEndian.Uint32(fr.hdr[:4])
	if length < 1 || length > MaxFrame {
		return 0, nil, fmt.Errorf("serve: frame length %d outside [1, %d]", length, MaxFrame)
	}
	op = fr.hdr[4]
	n := int(length) - 1
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("serve: truncated %s payload: %w", opName(op), err)
	}
	return op, fr.buf, nil
}

// cursor walks a frame payload. Reads past the end set bad instead of
// panicking, so a handler can decode unconditionally and check once.
type cursor struct {
	b   []byte
	off int
	bad bool
}

func (c *cursor) take(n int) []byte {
	if c.bad || n < 0 || len(c.b)-c.off < n {
		c.bad = true
		return nil
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) u8() byte {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// done reports a fully and exactly consumed payload.
func (c *cursor) done() bool { return !c.bad && c.off == len(c.b) }

// Encoding: frames are appended into a caller-owned scratch slice and
// written in one Write, so the per-frame byte count is observable at the
// write site and the encoder allocates only when a frame outgrows the
// scratch's capacity.

func appendU16(dst []byte, v uint16) []byte { return append(dst, byte(v>>8), byte(v)) }
func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// appendFrameHeader reserves a header for a frame whose payload will be
// appended after it; patchFrameLength fixes the length up once the
// payload is in place. start is the header's offset in dst.
func appendFrameHeader(dst []byte, op byte) (out []byte, start int) {
	start = len(dst)
	out = append(dst, 0, 0, 0, 0, op)
	return out, start
}

func patchFrameLength(dst []byte, start int) {
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(len(dst)-start-4))
}

// writeFrame encodes one small frame (header + payload builder output)
// into scratch and writes it to w, returning the grown scratch for reuse
// and the frame's size in bytes.
func writeFrame(w *bufio.Writer, scratch []byte, op byte, payload func([]byte) []byte) ([]byte, int, error) {
	scratch = scratch[:0]
	scratch, start := appendFrameHeader(scratch, op)
	if payload != nil {
		scratch = payload(scratch)
	}
	patchFrameLength(scratch, start)
	n, err := w.Write(scratch)
	return scratch, n, err
}
