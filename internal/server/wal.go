package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"pdce/internal/faultinject"
)

// Write-ahead log of the durable job queue.
//
// The log is a single append-only file of framed records:
//
//	[4 bytes LE payload length][4 bytes LE CRC-32 (IEEE) of payload][payload]
//
// The payload is the JSON encoding of walRecord. Appends are offered
// to the OS in one write; records whose durability the caller promised
// (job submissions — the 202 is the promise) are fsync'd before the
// promise is made.
//
// Recovery distinguishes two corruption shapes:
//
//   - A torn tail — the file ends mid-frame, or the final frame's
//     length field points past EOF. This is the normal signature of a
//     crash between write and sync. The tail is quarantined: the file
//     is truncated back to the last whole record and replay proceeds
//     with everything before it.
//   - A corrupt record mid-file — the frame is whole but its checksum
//     or encoding is wrong (bit rot, a torn sector the tail heuristic
//     cannot see). The record is quarantined and skipped, and because
//     the frame length was intact, recovery resynchronizes and keeps
//     replaying the records after it.
//
// Both counts are surfaced through RecoverStats so /metrics can report
// what recovery had to discard.

// walRecord is one logged queue event. Op decides which fields are
// meaningful; unknown fields in old logs are ignored (JSON), so the
// format is forward-extensible.
type walRecord struct {
	// Op is the event: "submit", "start", "done", "fail", or "ack".
	Op string `json:"op"`
	// ID is the job's content address (Program.CacheKey), the key
	// every event of one job shares.
	ID string `json:"id"`

	// Submission payload (op=submit): everything needed to re-run the
	// job after a crash.
	Name      string `json:"name,omitempty"`
	Source    string `json:"source,omitempty"`
	Lang      string `json:"lang,omitempty"`
	Mode      string `json:"mode,omitempty"`
	MaxRounds int    `json:"max_rounds,omitempty"`
	Telemetry bool   `json:"telemetry,omitempty"`
	Trace     bool   `json:"trace,omitempty"`
	// DeadlineMS is the submission's deadline_ms; 0 runs the job
	// under the server's default deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// SubmittedUnixMS is when the job was accepted, in Unix
	// milliseconds, so a replayed job keeps its age. Absent in older
	// logs, whose jobs count their age from the boot that replays them.
	SubmittedUnixMS int64 `json:"submitted_unix_ms,omitempty"`

	// Request-tracing identity (op=submit): the submitting request's
	// trace ID, its enqueue span, and its Pdce-Request-Id. Replayed
	// executions in a later process lifetime join the same trace and
	// link back to the enqueue span. Absent in pre-tracing logs
	// (JSON's unknown/missing-field tolerance keeps both directions
	// compatible).
	TraceID   string `json:"trace_id,omitempty"`
	SpanID    string `json:"span_id,omitempty"`
	RequestID string `json:"request_id,omitempty"`

	// Error is the failed run's error (op=fail).
	Error string `json:"error,omitempty"`

	// Result payload (op=done): the serialized OptimizeResponse bytes,
	// stored verbatim so a replayed result is byte-identical to the
	// one first computed.
	Body     []byte `json:"body,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
}

// walMaxRecord bounds one record's payload; a length field beyond it
// is treated as a torn tail, not an allocation request.
const walMaxRecord = 64 << 20

// RecoverStats reports what WAL recovery found.
type RecoverStats struct {
	// Records is the number of intact records replayed.
	Records int
	// TornBytes is the size of the quarantined tail (0 = clean file);
	// CorruptRecords counts mid-file records skipped over a bad
	// checksum or encoding.
	TornBytes      int
	CorruptRecords int
}

// WAL is the open log. Methods are safe for concurrent use.
type WAL struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	size    int64 // bytes written (logical end of file)
	synced  int64 // bytes known durable (last successful fsync)
	records int64
}

// OpenWAL replays the log at path (created if missing), truncates any
// torn tail, and returns the open log positioned for append together
// with the replayed records.
func OpenWAL(path string) (*WAL, []walRecord, RecoverStats, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, RecoverStats{}, fmt.Errorf("queue wal: %w", err)
	}
	recs, keep, st := scanWAL(data)

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, RecoverStats{}, fmt.Errorf("queue wal: %w", err)
	}
	if int64(keep) < int64(len(data)) {
		if err := f.Truncate(int64(keep)); err != nil {
			f.Close()
			return nil, nil, RecoverStats{}, fmt.Errorf("queue wal: quarantining torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(keep), 0); err != nil {
		f.Close()
		return nil, nil, RecoverStats{}, fmt.Errorf("queue wal: %w", err)
	}
	w := &WAL{f: f, path: path, size: int64(keep), synced: int64(keep), records: int64(st.Records)}
	return w, recs, st, nil
}

// scanWAL walks the raw file bytes and returns the intact records, the
// prefix length to keep (everything before a torn tail), and the
// recovery statistics.
func scanWAL(data []byte) (recs []walRecord, keep int, st RecoverStats) {
	off := 0
	for {
		if len(data)-off < 8 {
			// A bare partial header (or clean EOF at off == len).
			st.TornBytes = len(data) - off
			return recs, off, st
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n <= 0 || n > walMaxRecord || off+8+n > len(data) {
			// The frame points past EOF (or is nonsense): the write was
			// torn. Everything from here is quarantined.
			st.TornBytes = len(data) - off
			return recs, off, st
		}
		payload := append([]byte(nil), data[off+8:off+8+n]...)
		off += 8 + n
		faultinject.Fire(faultinject.QueueRecover, &payload)
		if crc32.ChecksumIEEE(payload) != sum {
			st.CorruptRecords++
			continue // the frame was whole: resync and keep replaying
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Op == "" || rec.ID == "" {
			st.CorruptRecords++
			continue
		}
		st.Records++
		recs = append(recs, rec)
	}
}

// encodeFrame renders one record as a whole log frame.
func encodeFrame(rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame, nil
}

// Append logs one record. With sync true the record is fsync'd before
// Append returns — the caller may then acknowledge durability to its
// client. An append or sync error leaves the log usable but reports
// the record as not durable.
func (w *WAL) Append(rec walRecord, sync bool) error {
	frame, err := encodeFrame(rec)
	if err != nil {
		return fmt.Errorf("queue wal: encoding record: %w", err)
	}
	// The torn-write seam: a hook may shorten the frame, modelling a
	// crash that let only part of the record reach the disk.
	faultinject.Fire(faultinject.QueueAppend, &frame)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("queue wal: closed")
	}
	n, err := w.f.Write(frame)
	w.size += int64(n)
	if err != nil {
		return fmt.Errorf("queue wal: append: %w", err)
	}
	w.records++
	if !sync {
		return nil
	}
	return w.syncLocked()
}

// Sync fsyncs everything appended so far.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("queue wal: closed")
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	var ferr error
	faultinject.Fire(faultinject.QueueFsync, &ferr)
	if ferr == nil {
		ferr = w.f.Sync()
	}
	if ferr != nil {
		return fmt.Errorf("queue wal: fsync: %w", ferr)
	}
	w.synced = w.size
	return nil
}

// Size returns the logical log size in bytes; SyncedSize the prefix
// known durable (everything beyond it may vanish in a crash — the
// chaos harness truncates there to simulate one). Records is the
// lifetime record count including replayed ones.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

func (w *WAL) SyncedSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.synced
}

func (w *WAL) Records() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Close syncs and closes the log. A closed log rejects appends.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	serr := w.f.Sync()
	cerr := w.f.Close()
	w.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// abandon closes the file descriptor without syncing — the crash
// simulation path (Queue.Kill): whatever the OS already took may
// survive, nothing else is promised.
func (w *WAL) abandon() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

// rewriteWAL atomically replaces the log at path with a compacted
// snapshot of recs (temp file + fsync + rename), returning the opened
// result. Compaction runs at boot, after replay: acknowledged jobs are
// dropped and each surviving job collapses to at most two records, so
// the log stays proportional to the live job set instead of the
// lifetime event count.
func rewriteWAL(path string, recs []walRecord) (*WAL, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "wal-compact-*")
	if err != nil {
		return nil, fmt.Errorf("queue wal: compact: %w", err)
	}
	defer os.Remove(tmp.Name())
	for _, rec := range recs {
		frame, err := encodeFrame(rec)
		if err == nil {
			_, err = tmp.Write(frame)
		}
		if err != nil {
			tmp.Close()
			return nil, fmt.Errorf("queue wal: compact: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return nil, fmt.Errorf("queue wal: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return nil, fmt.Errorf("queue wal: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return nil, fmt.Errorf("queue wal: compact: %w", err)
	}
	w, _, _, err := OpenWAL(path)
	return w, err
}
