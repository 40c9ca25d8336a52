// Package resultstore persists benchmark results across daemon restarts as
// an append-only JSONL journal with an in-memory index. One line is one
// completed run; a record is written and made durable *before* it is
// indexed and acknowledged, so the index can never claim a record the
// journal may lose (the invariant the crash-point injection tests pin
// down). Durability is a policy: SyncOS hands the line to the OS (survives
// a process crash), SyncAlways additionally fsyncs (survives power loss) —
// the daemon runs with SyncAlways. The format is plain JSON per line on
// purpose: jq, a spreadsheet import, or a future compaction pass can all
// consume the journal without this package.
//
// The write path has injectable fault hooks (Faults): failed writes,
// failed fsyncs, failed closes and torn lines, used by the chaos tests to
// prove that a failed append is never indexed and that replay-on-open
// recovers the journal's good prefix.
package resultstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/splitmix"
	"repro/internal/telemetry"
)

// SyncPolicy selects journal durability.
type SyncPolicy int

const (
	// SyncOS flushes each appended line to the OS before acknowledging:
	// an acknowledged record survives a process crash but not power loss.
	SyncOS SyncPolicy = iota
	// SyncAlways additionally fsyncs before the record is indexed and
	// acknowledged: an acknowledged record survives power loss. This is
	// the policy splash4d runs with.
	SyncAlways
)

// Options configures OpenWithOptions.
type Options struct {
	// Sync is the durability policy for appends.
	Sync SyncPolicy
	// Faults, when non-nil, injects failures into the write path.
	Faults *Faults
}

// Faults injects failures into a store's write path — the chaos seam the
// robustness tests drive. All methods are safe for concurrent use; a nil
// error clears the corresponding fault. The zero value injects nothing.
type Faults struct {
	mu       sync.Mutex
	writeErr error
	syncErr  error
	closeErr error
	tearArm  bool
	tearN    int
}

// FailWrites makes every subsequent journal write fail with err (nil
// clears the fault). No bytes reach the file while armed.
func (f *Faults) FailWrites(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeErr = err
}

// FailSync makes every subsequent fsync fail with err (nil clears).
func (f *Faults) FailSync(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncErr = err
}

// FailClose makes the next Close fail with err (nil clears).
func (f *Faults) FailClose(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closeErr = err
}

// TearNextWrite makes the next journal write land only its first n bytes
// and then fail — the torn-line crash the replay path must recover from.
func (f *Faults) TearNextWrite(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tearArm, f.tearN = true, n
}

// writeFault returns the pending write fault: torn >=0 means write that
// many bytes then fail with err.
func (f *Faults) writeFault() (torn int, err error) {
	if f == nil {
		return -1, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tearArm {
		f.tearArm = false
		return f.tearN, fmt.Errorf("resultstore: injected torn write after %d bytes", f.tearN)
	}
	if f.writeErr != nil {
		return -1, f.writeErr
	}
	return -1, nil
}

func (f *Faults) syncFault() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncErr
}

func (f *Faults) closeFault() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closeErr
}

// Record is one persisted run result.
type Record struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Kit      string `json:"kit"`
	Threads  int    `json:"threads"`
	Scale    string `json:"scale"`
	Seed     int64  `json:"seed"`
	Reps     int    `json:"reps"`

	// Node is the cluster node that owns (journaled) this record; empty
	// for single-node deployments. Shipped journal lines carry it, so a
	// replicated record self-describes its origin.
	Node string `json:"node,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`

	// Status is "ok" for completed runs, "error" for failed ones.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`

	// TimesNS holds every measured repetition's wall time in nanoseconds;
	// MeanNS is their mean. Persisting the raw repetitions (not just the
	// mean) is what lets /compare bootstrap a confidence interval later.
	TimesNS []int64 `json:"times_ns"`
	MeanNS  int64   `json:"mean_ns"`

	// TraceEvents is the synchronization-event count of the last
	// repetition's trace capture; 0 when the run was not traced.
	TraceEvents int64 `json:"trace_events,omitempty"`
	// SyncOps is the total synchronization-operation census of the last
	// repetition; 0 when the run was not instrumented.
	SyncOps int64 `json:"sync_ops,omitempty"`

	// RequestID is the propagated ID of the submission that created the
	// job, linking the journal record to the daemon's access log.
	RequestID string `json:"request_id,omitempty"`
	// Spans is the job's lifecycle span chain as known at append time:
	// admission through the last repetition. The journal and publish
	// phases close after this record is durable, so they appear in the
	// job view and the access log but not here.
	Spans []telemetry.Span `json:"spans,omitempty"`
}

// Key identifies the measurement population a record belongs to: every
// record with the same Key measured the same (workload, kit, configuration)
// and their repetitions can be pooled into one sample.
type Key struct {
	Workload string
	Kit      string
	Threads  int
	Scale    string
}

// Key returns the record's population key.
func (r Record) Key() Key {
	return Key{Workload: r.Workload, Kit: r.Kit, Threads: r.Threads, Scale: r.Scale}
}

// Store is the journal plus its in-memory index. All methods are safe for
// concurrent use.
type Store struct {
	mu      sync.Mutex
	f       *os.File
	opts    Options
	closed  bool
	ix      *Index
	skipped int // malformed journal lines ignored at Open

	// size is the journal file's current end offset, advanced by every
	// write that lands bytes (including torn fragments). durable is the
	// acknowledged watermark: the end offset after the last append that
	// completed its full durability protocol (write, plus fsync under
	// SyncAlways). ReadJournal serves bytes only up to durable, so a
	// follower shipping this journal never reads a line the store has not
	// acknowledged — the fsync-respecting half of the shipping contract.
	size    int64
	durable int64

	// gen is the journal generation: a nonzero value minted fresh at every
	// Open. A follower that tails this journal remembers the generation its
	// replicated bytes came from; seeing a different one means the origin
	// reopened the journal — restart, truncation, or outright replacement —
	// and byte offsets from the old generation can no longer be trusted, so
	// the follower resyncs from offset zero (see internal/cluster's repair
	// pass). The value is identity, not content: it never changes while the
	// store stays open.
	gen uint64
}

// genCounter disambiguates generations minted within one clock tick.
var genCounter atomic.Uint64

// newGeneration mints a nonzero generation identity.
func newGeneration() uint64 {
	// The splitmix64 finalizer spreads clock adjacency over the word.
	z := splitmix.Mix(uint64(time.Now().UnixNano()) + genCounter.Add(1)<<1)
	if z == 0 {
		z = 1
	}
	return z
}

// Open reads (or creates) the journal at path with the default options
// (SyncOS, no fault injection) and rebuilds the index.
func Open(path string) (*Store, error) {
	return OpenWithOptions(path, Options{})
}

// OpenWithOptions reads (or creates) the journal at path and rebuilds the
// index. A malformed line — typically a torn final write from a crash —
// is skipped and counted, never fatal: the journal's good prefix is
// always usable.
func OpenWithOptions(path string, opts Options) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{f: f, opts: opts, ix: NewIndex()}
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	// A torn final write leaves the journal without a trailing newline;
	// terminate it so the next append starts on a fresh line instead of
	// gluing onto the fragment. Repair bypasses the fault hooks: it fixes
	// past damage, it does not participate in the injected failure.
	if end > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, end-1); err != nil {
			f.Close()
			return nil, fmt.Errorf("resultstore: %w", err)
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, fmt.Errorf("resultstore: %w", err)
			}
			end++
		}
	}
	s.size, s.durable = end, end
	s.gen = newGeneration()
	return s, nil
}

// Generation returns the journal generation minted when this store opened.
// It is stable for the store's lifetime and different across opens, which
// is how journal followers detect that an origin restarted (and may have
// truncated or replaced its journal) and that their byte offsets need a
// resync.
func (s *Store) Generation() uint64 { return s.gen }

// replay loads every journal line into the index.
func (s *Store) replay() error {
	sc := bufio.NewScanner(s.f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil || r.ID == "" {
			s.skipped++
			continue
		}
		s.ix.Add(r)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("resultstore: reading journal: %w", err)
	}
	return nil
}

// Append journals and indexes one record. The full line reaches the OS —
// and, under SyncAlways, the disk — *before* the record is indexed, so a
// failed append leaves no indexed-but-lost entry: on any error the index
// is untouched and the journal holds at most an unacknowledged fragment
// that replay-on-open skips.
func (s *Store) Append(r Record) error {
	if r.ID == "" {
		return fmt.Errorf("resultstore: record needs an ID")
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("resultstore: store is closed")
	}
	if err := s.write(line); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if s.opts.Sync == SyncAlways {
		if err := s.syncLocked(); err != nil {
			// The line is in the OS but not durable; do not acknowledge.
			// Replay tolerates the possible duplicate-free extra line: it
			// was never indexed, so nothing claims it exists.
			return fmt.Errorf("resultstore: sync before index: %w", err)
		}
	}
	// Acknowledged: advance the shipping watermark to the current end.
	// Bytes a failed earlier append left behind (a fragment, or a synced
	// line that missed its ack) ride along under the watermark; followers
	// treat them exactly like replay-on-open does — a malformed glued line
	// is skipped, never fatal.
	s.durable = s.size
	s.ix.Add(r)
	return nil
}

// write sends one complete line to the journal, honoring injected faults.
// A torn-write fault lands a prefix of the line and then fails, exactly
// like a crash mid-write. Caller holds mu.
func (s *Store) write(line []byte) error {
	torn, err := s.opts.Faults.writeFault()
	if err != nil {
		if torn > 0 {
			if torn > len(line) {
				torn = len(line)
			}
			n, _ := s.f.Write(line[:torn]) // best effort: the crash leaves a fragment
			s.size += int64(n)
		}
		return err
	}
	n, err := s.f.Write(line)
	s.size += int64(n)
	return err
}

// syncLocked fsyncs the journal, honoring injected faults. Caller holds mu.
func (s *Store) syncLocked() error {
	if err := s.opts.Faults.syncFault(); err != nil {
		return err
	}
	return s.f.Sync()
}

// Probe exercises the journal's write path without appending a record: it
// checks the store is open, consults the injected write faults, and
// fsyncs the file. splash4d uses it to decide when to leave degraded
// mode — a passing probe means appends can succeed again.
func (s *Store) Probe() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("resultstore: store is closed")
	}
	if _, err := s.opts.Faults.writeFault(); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := s.syncLocked(); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// Len returns the number of indexed records.
func (s *Store) Len() int { return s.ix.Len() }

// Skipped returns how many malformed journal lines Open ignored.
func (s *Store) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// Index returns the store's live in-memory index.
func (s *Store) Index() *Index { return s.ix }

// All returns a copy of every record in journal order.
func (s *Store) All() []Record { return s.ix.All() }

// ByID returns the most recent record with the given id.
func (s *Store) ByID(id string) (Record, bool) { return s.ix.ByID(id) }

// ByKey returns every record of one measurement population, in journal
// order.
func (s *Store) ByKey(k Key) []Record { return s.ix.ByKey(k) }

// TimesNS pools the repetition times of every successful record of one
// population — the sample /compare feeds to the bootstrap.
func (s *Store) TimesNS(k Key) []int64 { return s.ix.TimesNS(k) }

// DurableSize returns the acknowledged journal watermark in bytes: every
// byte below it belongs to an append that completed its durability
// protocol (or to replayed history). This is the offset space journal
// shipping resumes in.
func (s *Store) DurableSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable
}

// ReadJournal fills p with raw journal bytes starting at offset off,
// clamped to the durable watermark, and returns the byte count plus the
// current watermark. A follower tails the journal by calling this with its
// next offset until n == 0; offsets remain valid across store reopens
// because the journal is append-only. Reading past the watermark is not an
// error — it returns n == 0, the "caught up" signal.
func (s *Store) ReadJournal(p []byte, off int64) (n int, durable int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, s.durable, fmt.Errorf("resultstore: store is closed")
	}
	if off < 0 {
		return 0, s.durable, fmt.Errorf("resultstore: negative journal offset %d", off)
	}
	if off >= s.durable || len(p) == 0 {
		return 0, s.durable, nil
	}
	if max := s.durable - off; int64(len(p)) > max {
		p = p[:max]
	}
	n, err = s.f.ReadAt(p, off)
	if err == io.EOF && int64(n) == s.durable-off {
		err = nil
	}
	if err != nil {
		return n, s.durable, fmt.Errorf("resultstore: reading journal at %d: %w", off, err)
	}
	return n, s.durable, nil
}

// Flush forces journal bytes to the OS. Appends write through to the OS
// directly, so this only needs to fsync under SyncAlways-equivalent
// callers; it is kept as the pre-drain durability hook.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.syncLocked(); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// Close syncs and closes the journal. Further Appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	syncErr := s.syncLocked()
	closeErr := s.opts.Faults.closeFault()
	if closeErr == nil {
		closeErr = s.f.Close()
	} else {
		s.f.Close() // release the descriptor even when reporting the injected failure
	}
	for _, err := range []error{syncErr, closeErr} {
		if err != nil {
			return fmt.Errorf("resultstore: %w", err)
		}
	}
	return nil
}
