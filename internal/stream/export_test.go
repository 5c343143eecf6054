package stream

import (
	"bytes"
	"io"
)

// ReencodeCheckpoint decodes a checkpoint document for a shard with or
// without live analysis, restores it into a fresh shard and encodes
// that shard again.
func ReencodeCheckpoint(doc []byte, analysis bool) ([]byte, error) {
	ck, err := decodeCheckpoint(doc, analysis)
	if err != nil {
		return nil, err
	}
	s := &shard{index: ck.shard, lastSeq: ck.seq}
	s.restore(ck)
	var buf bytes.Buffer
	_, err = s.encodeCheckpoint(&buf)
	return buf.Bytes(), err
}

// EncodeCheckpoint streams local shard i's state to w as a checkpoint
// document. The ingester must be closed.
func (in *Ingester) EncodeCheckpoint(i int, w io.Writer) (int64, error) {
	return in.shards[i].encodeCheckpoint(w)
}

// WriteCheckpoint atomically writes local shard i's checkpoint into dir,
// as a durable shard does. The ingester must be closed.
func (in *Ingester) WriteCheckpoint(i int, dir string) (int64, error) {
	return writeCheckpointFile(dir, in.shards[i].encodeCheckpoint)
}

// ProbeMinSize is the decoder's lower bound on one encoded probe, and
// EmptyProbeSize the size the encoder gives a probe with no state.
const ProbeMinSize = probeMinSize

func EmptyProbeSize() int {
	return len(appendProbeState(nil, newProbeState(1, nil), false, new([]uint32)))
}
