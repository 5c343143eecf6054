// Package wire defines the binary interchange format of the live
// ingest tier: a length-prefixed, CRC32C-checked frame layer shared
// with the write-ahead log, and a fixed-width binary record codec for
// the four record kinds the stream accepts (probe metadata, connection
// sessions, k-root rounds, uptime reports).
//
// A wire batch — the body of a POST /api/v2/stream/records request
// with Content-Type application/x-atlas-binary — is a plain
// concatenation of frames:
//
//	[4B little-endian payload length][4B little-endian CRC32C of payload][payload]
//
// which is byte-for-byte the frame layout of a WAL segment
// (internal/wal builds its segments through this package), so one
// reader handles both: a WAL segment can be shipped to a peer as a
// batch, and a batch can be appended to a log without reframing. Each
// frame payload is one record: a kind byte followed by the kind's
// fixed-width little-endian body (see record.go).
//
// The decode path is allocation-free: FrameIter yields subslices of
// the batch buffer, and the per-kind Decode functions return value
// structs, so ingesting a binary batch costs zero heap allocations per
// record (the one exception is an IPv6 session address, which must
// materialise its string). Corrupt input — torn frames, flipped bits,
// oversized length prefixes — is rejected with an error before any
// length-driven allocation can happen, so a hostile batch cannot make
// the decoder allocate more than the bytes it actually sent.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// FrameHeaderSize is the fixed per-frame overhead: 4 bytes of
	// payload length plus 4 bytes of CRC32C, both little-endian.
	FrameHeaderSize = 8
	// MaxFramePayload bounds a single frame's payload. A length prefix
	// beyond it is treated as corruption, not as a huge record — the
	// same rule the WAL applies to its segments.
	MaxFramePayload = 16 << 20
)

// castagnoli is the CRC32C polynomial table; Castagnoli matches the
// WAL's historical choice and has hardware support on current CPUs.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of a frame payload.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// ChecksumUpdate extends a running CRC32C with p, so a document written
// in pieces is checksummed without being held whole:
// ChecksumUpdate(Checksum(a), b) == Checksum(a+b).
func ChecksumUpdate(sum uint32, p []byte) uint32 { return crc32.Update(sum, castagnoli, p) }

// Framing errors. FrameIter wraps them with the batch offset; use
// errors.Is to classify.
var (
	// ErrTornFrame marks a frame whose header or payload extends past
	// the end of the input — a truncated batch or a torn WAL tail.
	ErrTornFrame = errors.New("wire: torn frame")
	// ErrFrameLength marks a length prefix of zero or beyond
	// MaxFramePayload.
	ErrFrameLength = errors.New("wire: frame length out of range")
	// ErrChecksum marks a payload whose CRC32C does not match its
	// header.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
)

// PutFrameHeader writes payload's frame header (length + CRC32C) into
// hdr, which must be at least FrameHeaderSize bytes.
func PutFrameHeader(hdr []byte, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], Checksum(payload))
}

// ParseFrameHeader splits a frame header into its declared payload
// length and checksum. It does not validate either; callers check the
// length against MaxFramePayload and the remaining input, then the
// checksum against the payload actually read.
func ParseFrameHeader(hdr []byte) (length, sum uint32) {
	return binary.LittleEndian.Uint32(hdr[0:4]), binary.LittleEndian.Uint32(hdr[4:8])
}

// AppendFrame appends one framed payload to dst and returns the
// extended slice.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [FrameHeaderSize]byte
	PutFrameHeader(hdr[:], payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// FrameIter walks the frames of a batch in place. Payloads are
// subslices of the input — valid until the caller releases the batch
// buffer — so iteration allocates nothing.
type FrameIter struct {
	b   []byte
	off int
}

// Frames returns an iterator over b's frames.
func Frames(b []byte) FrameIter { return FrameIter{b: b} }

// Offset returns the byte offset of the next unread frame — on error,
// the offset of the frame that failed, which for a torn WAL tail is
// exactly where the segment should be truncated.
func (it *FrameIter) Offset() int { return it.off }

// Next returns the next frame's payload. done is true at the clean end
// of the input; an error describes the first malformed frame, wrapped
// around one of ErrTornFrame, ErrFrameLength, ErrChecksum.
func (it *FrameIter) Next() (payload []byte, done bool, err error) {
	rest := it.b[it.off:]
	if len(rest) == 0 {
		return nil, true, nil
	}
	if len(rest) < FrameHeaderSize {
		return nil, false, fmt.Errorf("%w: %d byte header fragment at offset %d", ErrTornFrame, len(rest), it.off)
	}
	length, sum := ParseFrameHeader(rest)
	if length == 0 || length > MaxFramePayload {
		return nil, false, fmt.Errorf("%w: %d at offset %d", ErrFrameLength, length, it.off)
	}
	if uint32(len(rest)-FrameHeaderSize) < length {
		return nil, false, fmt.Errorf("%w: payload of %d bytes exceeds remaining %d at offset %d",
			ErrTornFrame, length, len(rest)-FrameHeaderSize, it.off)
	}
	payload = rest[FrameHeaderSize : FrameHeaderSize+length]
	if Checksum(payload) != sum {
		return nil, false, fmt.Errorf("%w: frame at offset %d", ErrChecksum, it.off)
	}
	it.off += FrameHeaderSize + int(length)
	return payload, false, nil
}
