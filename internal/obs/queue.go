package obs

// QueueSnapshot is the "job_queue" section of pdced's /metrics payload
// and the declaration of the durable async job queue's counters
// (internal/server's WAL-backed queue). The queue holds one, bumps its
// Count fields in place, and fills the gauges — depth, running and
// terminal jobs, oldest queued age, log size — on the frozen copy.
//
// The counters split into three groups: the submission path (Submits,
// DupSubmits — duplicate submissions collapsed onto an existing job by
// content address), the execution path (Completions, Poisoned — jobs
// parked as failed when their run failed — and Acks),
// and crash recovery (ReplayedJobs — jobs re-enqueued from the log on
// boot, TornRecords — incomplete log tails truncated at recovery,
// CorruptRecords — mid-log checksum failures quarantined while later
// records were still replayed, and FsyncFailures).
type QueueSnapshot struct {
	// Instantaneous queue state: jobs waiting to run, jobs executing,
	// retained terminal jobs awaiting acknowledgement, the age of the
	// oldest non-terminal job (0 when none), and the live write-ahead
	// log's size.
	Depth       int   `json:"depth"`
	Running     int   `json:"running"`
	Done        int   `json:"done"`
	Failed      int   `json:"failed"`
	OldestAgeMS int64 `json:"oldest_age_ms"`
	WALRecords  int64 `json:"wal_records"`
	WALBytes    int64 `json:"wal_bytes"`

	// Lifetime submission counters: accepted submissions and duplicate
	// submissions collapsed onto an existing job by content address.
	Submits    Count `json:"submits"`
	DupSubmits Count `json:"dup_submits"`
	// Execution outcomes: completed jobs (Degraded the subset cut
	// short by the containment layer), jobs poisoned by a failed run,
	// and client acknowledgements of terminal results.
	Completions Count `json:"completions"`
	Degraded    Count `json:"queue_degraded"`
	Poisoned    Count `json:"poisoned"`
	Acks        Count `json:"acks"`
	// Crash recovery: jobs re-enqueued from the log on boot, torn log
	// tails truncated, corrupt mid-log records quarantined, and fsync
	// failures surfaced to submitters.
	ReplayedJobs   Count `json:"replayed_jobs"`
	TornRecords    Count `json:"torn_records"`
	CorruptRecords Count `json:"corrupt_records"`
	FsyncFailures  Count `json:"fsync_failures"`
}
