package server

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pdce/internal/faultinject"
)

// wal_test.go exercises the log's recovery edge cases white-box: empty
// and missing files, torn tails, mid-file corruption, and the
// append/fsync crash window. The queue-level consequences (jobs
// surviving, jobs lost only when unacknowledged) are covered in
// queue_test.go and internal/chaos.

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "queue.wal")
}

func mustAppend(t *testing.T, w *WAL, rec walRecord, sync bool) {
	t.Helper()
	if err := w.Append(rec, sync); err != nil {
		t.Fatalf("append %+v: %v", rec, err)
	}
}

func TestWALMissingAndEmptyFile(t *testing.T) {
	path := walPath(t)
	// Missing file: clean empty log.
	w, recs, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || st != (RecoverStats{}) {
		t.Fatalf("missing file: recs=%v st=%+v, want clean empty", recs, st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Empty file (created above): same.
	w, recs, st, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(recs) != 0 || st != (RecoverStats{}) {
		t.Fatalf("empty file: recs=%v st=%+v, want clean empty", recs, st)
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := walPath(t)
	w, _, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, walRecord{Op: "submit", ID: "a", Source: "x := 1"}, true)
	mustAppend(t, w, walRecord{Op: "start", ID: "a", Attempts: 1}, false)
	mustAppend(t, w, walRecord{Op: "done", ID: "a", Body: []byte(`{"ok":true}`)}, true)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if st.Records != 3 || st.TornBytes != 0 || st.CorruptRecords != 0 {
		t.Fatalf("recovery stats %+v, want 3 clean records", st)
	}
	if len(recs) != 3 || recs[0].Op != "submit" || recs[2].Op != "done" {
		t.Fatalf("replayed %+v", recs)
	}
	if string(recs[2].Body) != `{"ok":true}` {
		t.Fatalf("done body %q not preserved", recs[2].Body)
	}
}

// TestQueueCompactionKeepsSubmission: a submit record survives replay
// and compaction field for field, so a job rewritten at boot re-runs
// with the options it was submitted with.
func TestQueueCompactionKeepsSubmission(t *testing.T) {
	sub := walRecord{
		Op: "submit", ID: "a", Name: "demo", Source: "x := 1", Lang: "while",
		Mode: "pfe", MaxRounds: 3, DeadlineMS: 250, Telemetry: true, Trace: true,
		TraceID: "t", SpanID: "s", RequestID: "r",
	}
	q := &Queue{jobs: make(map[string]*qjob)}
	q.fold([]walRecord{sub})
	got := q.compactRecords()
	if len(got) != 1 || !reflect.DeepEqual(got[0], sub) {
		t.Fatalf("compacted %+v, want %+v", got, sub)
	}
}

// TestWALTornFinalRecord covers the crash-between-write-and-sync
// signature: the final frame reaches the disk only partially. Recovery
// must quarantine the tail, truncate the file back to the last whole
// record, and replay everything before it.
func TestWALTornFinalRecord(t *testing.T) {
	path := walPath(t)
	w, _, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, walRecord{Op: "submit", ID: "a", Source: "x := 1"}, true)
	intact := w.Size()
	mustAppend(t, w, walRecord{Op: "submit", ID: "b", Source: "y := 2"}, true)
	w.Close()

	// Tear the final record: keep the intact prefix plus a few bytes of
	// the second frame.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:intact+5], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, recs, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || st.TornBytes != 5 || st.CorruptRecords != 0 {
		t.Fatalf("recovery stats %+v, want 1 record + 5 torn bytes", st)
	}
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("replayed %+v, want only job a", recs)
	}
	// The torn tail must be gone from disk so the next append starts at
	// a record boundary.
	if w2.Size() != intact {
		t.Fatalf("post-recovery size %d, want truncated to %d", w2.Size(), intact)
	}
	mustAppend(t, w2, walRecord{Op: "submit", ID: "c", Source: "z := 3"}, true)
	w2.Close()
	_, recs, st, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].ID != "c" || st.CorruptRecords != 0 {
		t.Fatalf("after append-over-torn-tail: recs=%+v st=%+v", recs, st)
	}
}

// TestWALCorruptRecordMidFile covers bit rot: a mid-file record whose
// frame is whole but whose checksum fails. The record is quarantined
// and — because the frame length was intact — the records after it are
// still replayed.
func TestWALCorruptRecordMidFile(t *testing.T) {
	path := walPath(t)
	w, _, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, walRecord{Op: "submit", ID: "a", Source: "x := 1"}, true)
	mid := w.Size()
	mustAppend(t, w, walRecord{Op: "submit", ID: "b", Source: "y := 2"}, true)
	end := w.Size()
	mustAppend(t, w, walRecord{Op: "submit", ID: "c", Source: "z := 3"}, true)
	w.Close()

	// Flip one payload byte inside the middle record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[mid+8] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_ = end

	w2, recs, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if st.Records != 2 || st.CorruptRecords != 1 || st.TornBytes != 0 {
		t.Fatalf("recovery stats %+v, want 2 records + 1 corrupt", st)
	}
	if len(recs) != 2 || recs[0].ID != "a" || recs[1].ID != "c" {
		t.Fatalf("replayed %+v, want a and c (b quarantined)", recs)
	}
}

// TestWALCorruptViaRecoverHook is the same corruption delivered through
// the faultinject seam the chaos harness uses.
func TestWALCorruptViaRecoverHook(t *testing.T) {
	path := walPath(t)
	w, _, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, walRecord{Op: "submit", ID: "a", Source: "x := 1"}, true)
	mustAppend(t, w, walRecord{Op: "submit", ID: "b", Source: "y := 2"}, true)
	w.Close()

	n := 0
	defer faultinject.Set(func(p faultinject.Point, payload any) {
		if p == faultinject.QueueRecover {
			n++
			if n == 1 { // corrupt the first replayed record only
				(*payload.(*[]byte))[0] ^= 0xFF
			}
		}
	})()
	_, recs, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.CorruptRecords != 1 || len(recs) != 1 || recs[0].ID != "b" {
		t.Fatalf("recs=%+v st=%+v, want only b with 1 corrupt", recs, st)
	}
}

// TestWALCrashBetweenAppendAndFsync simulates the unsynced-write crash
// window: a record appended without sync may not survive. The synced
// prefix must replay exactly; truncating to SyncedSize (what the chaos
// harness does to model the crash) must never lose a synced record.
func TestWALCrashBetweenAppendAndFsync(t *testing.T) {
	path := walPath(t)
	w, _, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, walRecord{Op: "submit", ID: "a", Source: "x := 1"}, true)
	synced := w.SyncedSize()
	mustAppend(t, w, walRecord{Op: "start", ID: "a", Attempts: 1}, false)
	if w.SyncedSize() != synced {
		t.Fatalf("unsynced append moved SyncedSize to %d", w.SyncedSize())
	}
	if w.Size() <= synced {
		t.Fatalf("append did not grow the file (size %d, synced %d)", w.Size(), synced)
	}
	w.abandon() // crash: no final sync

	// The crash took everything after the synced prefix.
	if err := os.Truncate(path, synced); err != nil {
		t.Fatal(err)
	}
	_, recs, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || len(recs) != 1 || recs[0].ID != "a" || recs[0].Op != "submit" {
		t.Fatalf("synced prefix replay: recs=%+v st=%+v", recs, st)
	}
}

// TestWALFsyncFailure: a failing fsync must surface as an Append error
// (the queue then refuses the submission) while the log stays usable.
func TestWALFsyncFailure(t *testing.T) {
	path := walPath(t)
	w, _, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	fail := errors.New("injected: disk on fire")
	restore := faultinject.Set(func(p faultinject.Point, payload any) {
		if p == faultinject.QueueFsync {
			*payload.(*error) = fail
		}
	})
	err = w.Append(walRecord{Op: "submit", ID: "a", Source: "x := 1"}, true)
	restore()
	if err == nil || !errors.Is(err, fail) {
		t.Fatalf("append with failing fsync: err=%v, want injected failure", err)
	}
	// The log recovers: the next synced append succeeds.
	mustAppend(t, w, walRecord{Op: "submit", ID: "b", Source: "y := 2"}, true)
}

// TestWALTornAppendViaHook covers the QueueAppend seam: a hook that
// truncates the outgoing frame produces exactly the torn-tail shape
// recovery quarantines.
func TestWALTornAppendViaHook(t *testing.T) {
	path := walPath(t)
	w, _, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, walRecord{Op: "submit", ID: "a", Source: "x := 1"}, true)
	restore := faultinject.Set(func(p faultinject.Point, payload any) {
		if p == faultinject.QueueAppend {
			f := payload.(*[]byte)
			*f = (*f)[:len(*f)/2]
		}
	})
	mustAppend(t, w, walRecord{Op: "submit", ID: "b", Source: "y := 2"}, true)
	restore()
	w.abandon()

	_, recs, st, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "a" || st.TornBytes == 0 {
		t.Fatalf("torn append: recs=%+v st=%+v, want only a + torn tail", recs, st)
	}
}

// TestWALFrameSanity rejects nonsense length fields as torn tails
// rather than allocating from them.
func TestWALFrameSanity(t *testing.T) {
	var frame [16]byte
	binary.LittleEndian.PutUint32(frame[:], uint32(walMaxRecord+1))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(nil))
	recs, keep, st := scanWAL(frame[:])
	if len(recs) != 0 || keep != 0 || st.TornBytes != 16 {
		t.Fatalf("oversized length: recs=%v keep=%d st=%+v", recs, keep, st)
	}
	recs, keep, st = scanWAL([]byte{1, 2, 3})
	if len(recs) != 0 || keep != 0 || st.TornBytes != 3 {
		t.Fatalf("short header: recs=%v keep=%d st=%+v", recs, keep, st)
	}
}

// FuzzWALRecover feeds arbitrary bytes to recovery, the decoder of a
// log a crash or a bad disk may have mangled. It must never panic; the
// prefix it keeps must be exactly what the torn-tail count leaves; and
// that prefix must rescan to the same records with nothing torn.
func FuzzWALRecover(f *testing.F) {
	var whole []byte
	for _, rec := range []walRecord{
		{Op: "submit", ID: "a", Source: "x := 1"},
		{Op: "done", ID: "a", Body: []byte(`{"ok":true}`)},
	} {
		frame, err := encodeFrame(rec)
		if err != nil {
			f.Fatal(err)
		}
		whole = append(whole, frame...)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)-5]) // torn tail
	badCRC := append([]byte(nil), whole...)
	badCRC[4] ^= 0xFF
	f.Add(badCRC)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, keep, st := scanWAL(data)
		if keep < 0 || keep > len(data) {
			t.Fatalf("keep %d outside [0, %d]", keep, len(data))
		}
		if st.TornBytes != len(data)-keep {
			t.Fatalf("torn bytes %d, want %d", st.TornBytes, len(data)-keep)
		}
		if st.Records != len(recs) {
			t.Fatalf("stats count %d records, %d returned", st.Records, len(recs))
		}
		for _, rec := range recs {
			if rec.Op == "" || rec.ID == "" {
				t.Fatalf("replayed a record without op or id: %+v", rec)
			}
		}
		again, keep2, st2 := scanWAL(data[:keep])
		if keep2 != keep || st2 != (RecoverStats{Records: st.Records, CorruptRecords: st.CorruptRecords}) ||
			!reflect.DeepEqual(again, recs) {
			t.Fatalf("rescan of the kept prefix: keep %d stats %+v, want keep %d stats %+v and the same records",
				keep2, st2, keep, st)
		}
	})
}
