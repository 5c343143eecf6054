package wal

import (
	"fmt"
	"os"
	"testing"
)

// countingFS counts write and fsync calls on the segment files it
// opens (directory fsyncs go through Open and are not counted). When
// failWrite is n > 0, the n-th write fails without writing a byte.
type countingFS struct {
	FS
	writes, syncs int
	failWrite     int
}

type countingFile struct {
	File
	fs *countingFS
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c}, nil
}

func (f countingFile) Write(p []byte) (int, error) {
	if f.fs.writes++; f.fs.writes == f.fs.failWrite {
		return 0, errInjected("write")
	}
	return f.File.Write(p)
}

func (f countingFile) Sync() error { f.fs.syncs++; return f.File.Sync() }

func stageN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		seq, err := l.Stage([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("stage %d assigned seq %d, want %d", i, seq, want)
		}
	}
}

// TestGroupCommitOneWriteOneSync: N staged frames and one commit cost
// one write and one fsync under SyncAlways, and nothing reaches the file
// before the commit.
func TestGroupCommitOneWriteOneSync(t *testing.T) {
	dir := t.TempDir()
	fs := &countingFS{FS: OSFS}
	l, err := Open(dir, Options{Sync: SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	stageN(t, l, 0, 100)
	if fs.writes != 0 || fs.syncs != 0 {
		t.Fatalf("staging made %d writes, %d fsyncs; want none before Commit", fs.writes, fs.syncs)
	}
	if got := replayAll(t, dir, 0); len(got) != 0 {
		t.Fatalf("%d frames visible before Commit, want 0", len(got))
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if fs.writes != 1 || fs.syncs != 1 {
		t.Fatalf("commit of 100 frames made %d writes, %d fsyncs; want 1 and 1", fs.writes, fs.syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.writes != 1 || fs.syncs != 1 {
		t.Fatalf("Close after commit made more I/O: %d writes, %d fsyncs", fs.writes, fs.syncs)
	}
	got := replayAll(t, dir, 0)
	if len(got) != 100 || got[0] != "1:record-0000" || got[99] != "100:record-0099" {
		t.Fatalf("replayed %d frames, first %v", len(got), got)
	}
}

// TestGroupCommitSyncInterval: under an interval policy N a commit
// fsyncs only once N or more frames are unsynced, and the count
// restarts after each fsync.
func TestGroupCommitSyncInterval(t *testing.T) {
	fs := &countingFS{FS: OSFS}
	l, err := Open(t.TempDir(), Options{Sync: SyncPolicy(10), FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	commit := func(n, wantSyncs int) {
		t.Helper()
		stageN(t, l, next, n)
		next += n
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		if fs.syncs != wantSyncs {
			t.Fatalf("after %d frames: %d fsyncs, want %d", next, fs.syncs, wantSyncs)
		}
	}
	commit(4, 0)  // 4 unsynced
	commit(5, 0)  // 9 unsynced
	commit(3, 1)  // 12 >= 10: sync, count restarts
	commit(9, 1)  // 9 unsynced
	commit(1, 2)  // 10 >= 10
	commit(25, 3) // one commit, one fsync, however far past N
	if fs.writes != 6 {
		t.Fatalf("%d writes for 6 commits, want 6", fs.writes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitRotatesBetweenFrames: a staged batch that crosses
// SegmentBytes rotates at a frame boundary, never inside a frame, and
// the log replays every frame in order across the segments, also after
// a reopen.
func TestGroupCommitRotatesBetweenFrames(t *testing.T) {
	dir := t.TempDir()
	const frame = frameHeader + len("record-0000")
	l, err := Open(dir, Options{SegmentBytes: 4 * int64(frame), Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	stageN(t, l, 0, 30)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	seqs, err := segments(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	// 30 frames, 4 per segment: the per-record boundaries exactly.
	if len(seqs) != 8 {
		t.Fatalf("%d segments, want 8", len(seqs))
	}
	for i, first := range seqs {
		if want := uint64(1 + 4*i); first != want {
			t.Fatalf("segment %d starts at seq %d, want %d", i, first, want)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{SegmentBytes: 4 * int64(frame)})
	if err != nil {
		t.Fatal(err)
	}
	if l.NextSeq() != 31 {
		t.Fatalf("reopened NextSeq = %d, want 31 (a segment was torn)", l.NextSeq())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir, 0)
	if len(got) != 30 {
		t.Fatalf("replayed %d frames, want 30", len(got))
	}
	for i, g := range got {
		if want := fmt.Sprintf("%d:record-%04d", i+1, i); g != want {
			t.Fatalf("frame %d = %q, want %q", i, g, want)
		}
	}
}

// TestReopenSyncsUnsyncedTail: frames a failed commit wrote but never
// synced are kept by Open and counted unsynced, so one Sync makes them
// durable before anyone applies them.
func TestReopenSyncsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)
	l.f.Close() // abandon the handle without syncing, as a failed commit leaves it

	fs := &countingFS{FS: OSFS}
	l, err = Open(dir, Options{Sync: SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if fs.syncs != 1 {
		t.Fatalf("Sync after reopen made %d fsyncs, want 1", fs.syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedWriteKeepsSequence: a commit whose write fails without
// writing a byte hands its sequence back, so a caller that keeps
// appending on the same handle (as the dead-letter log does) names the
// next segment right after the last written frame, and Open replays
// every frame that was written, across the rotation.
func TestFailedWriteKeepsSequence(t *testing.T) {
	dir := t.TempDir()
	const frame = frameHeader + len("record-0000")
	fs := &countingFS{FS: OSFS, failWrite: 3}
	l, err := Open(dir, Options{SegmentBytes: 4 * int64(frame), Sync: SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 2)
	if _, err := l.Append([]byte("record-lost")); err == nil {
		t.Fatal("third write did not fail")
	}
	if l.NextSeq() != 3 {
		t.Fatalf("NextSeq after a failed write = %d, want 3", l.NextSeq())
	}
	appendN(t, l, 2, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{SegmentBytes: 4 * int64(frame)})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir, 0)
	if len(got) != 12 {
		t.Fatalf("replayed %d frames, want 12: %v", len(got), got)
	}
	for i, g := range got {
		if want := fmt.Sprintf("%d:record-%04d", i+1, i); g != want {
			t.Fatalf("frame %d = %q, want %q", i, g, want)
		}
	}
}
