package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"edgesurgeon/internal/telemetry"
)

// WALMagic and WALVersion head the write-ahead log, the same
// self-description contract the snapshot carries.
const (
	WALMagic   = "edgesurgeon-wal"
	WALVersion = 2
)

// Store filenames inside the state directory.
const (
	snapshotFile = "snapshot.json"
	walFile      = "wal.jsonl"
)

// WALEntry is one write-ahead record: either an ingested telemetry sample
// (every sample, whether it was later accepted, rejected or
// quarantine-dropped — the WAL records inputs, not outcomes, so replaying
// it reproduces outcomes) or a control mutation (a planner-throttle
// change). Seq is strictly increasing across the runtime's lifetime and
// survives snapshots, which remember the last folded Seq.
type WALEntry struct {
	Seq uint64 `json:"seq"`
	// Sample is the ingested sample, nil for control entries. Its NaN and
	// ±Inf values are strings (telemetry.Sample's codec), so the rejected
	// inputs the WAL records round-trip exactly.
	Sample *telemetry.Sample `json:"sample,omitempty"`
	// Throttle, when positive, records a SetPlannerThrottle call.
	Throttle float64 `json:"throttle,omitempty"`
}

// walHeader is the first line of every WAL file.
type walHeader struct {
	Magic   string `json:"magic"`
	Version int    `json:"v"`
}

// Store persists a Runtime's recoverable state in one directory: an atomic
// snapshot plus an append-only WAL of everything ingested since. The
// crash-safety contract: the snapshot is written with temp-file+rename (so
// it is always either the old or the new complete snapshot), WAL appends
// are single writes of one line (a torn final line is detected and
// dropped on load), and the WAL is reset only AFTER its contents are
// folded into a written snapshot — so at every instant
// snapshot + WAL-tail reconstructs the exact runtime state.
type Store struct {
	dir string
	wal *os.File
}

// OpenStore opens (creating if needed) the state directory and its WAL.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating state dir: %w", err)
	}
	st := &Store{dir: dir}
	if err := st.openWAL(); err != nil {
		return nil, err
	}
	return st, nil
}

// Dir returns the state directory.
func (st *Store) Dir() string { return st.dir }

// Close releases the WAL handle.
func (st *Store) Close() error {
	if st.wal == nil {
		return nil
	}
	err := st.wal.Close()
	st.wal = nil
	return err
}

// openWAL opens the WAL for appending, writing the header if the file is
// new or empty.
func (st *Store) openWAL() error {
	path := filepath.Join(st.dir, walFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("serve: opening wal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("serve: stat wal: %w", err)
	}
	if info.Size() == 0 {
		hdr, _ := json.Marshal(walHeader{Magic: WALMagic, Version: WALVersion})
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return fmt.Errorf("serve: writing wal header: %w", err)
		}
	}
	st.wal = f
	return nil
}

// AppendEntry appends one WAL record as a single write. The entry is
// durable (beyond the OS cache) only on Sync, but a torn tail is tolerated
// on load, so a crash mid-append loses at most the entry being written.
func (st *Store) AppendEntry(e WALEntry) error {
	if st.wal == nil {
		return fmt.Errorf("serve: store is closed")
	}
	data, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("serve: encoding wal entry %d: %w", e.Seq, err)
	}
	if _, err := st.wal.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("serve: appending wal entry %d: %w", e.Seq, err)
	}
	return nil
}

// WriteSnapshot atomically replaces the snapshot and resets the WAL to
// empty: the snapshot has folded everything the WAL held. Snapshot first,
// WAL reset second, so a crash between the two steps leaves a state that
// still recovers exactly (replaying an already-folded WAL prefix is
// prevented by Seq).
func (st *Store) WriteSnapshot(s *Snapshot) error {
	data, err := EncodeSnapshot(s)
	if err != nil {
		return err
	}
	if err := telemetry.WriteFileAtomic(filepath.Join(st.dir, snapshotFile), data, 0o644); err != nil {
		return err
	}
	return st.ResetWAL(nil)
}

// ResetWAL atomically rewrites the WAL to hold exactly the given tail
// (header first), then reopens it for appending.
func (st *Store) ResetWAL(tail []WALEntry) error {
	if st.wal != nil {
		if err := st.wal.Close(); err != nil {
			return fmt.Errorf("serve: closing wal: %w", err)
		}
		st.wal = nil
	}
	var b strings.Builder
	hdr, _ := json.Marshal(walHeader{Magic: WALMagic, Version: WALVersion})
	b.Write(hdr)
	b.WriteByte('\n')
	for i := range tail {
		data, err := json.Marshal(&tail[i])
		if err != nil {
			return fmt.Errorf("serve: encoding wal tail entry %d: %w", tail[i].Seq, err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	if err := telemetry.WriteFileAtomic(filepath.Join(st.dir, walFile), []byte(b.String()), 0o644); err != nil {
		return err
	}
	return st.openWAL()
}

// LoadSnapshot reads and decodes the snapshot, or returns (nil, nil) when
// none has been written yet.
func (st *Store) LoadSnapshot() (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(st.dir, snapshotFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: reading snapshot: %w", err)
	}
	return DecodeSnapshot(data)
}

// LoadWAL reads the write-ahead log. A torn final line (a crash
// mid-append) is dropped silently; any earlier malformed line, a bad
// header, or a non-increasing Seq is corruption and errors out — the log
// is the recovery source of truth, so silent skips in the middle would
// resurrect a different history than the one that ran.
func (st *Store) LoadWAL() ([]WALEntry, error) {
	data, err := os.ReadFile(filepath.Join(st.dir, walFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: reading wal: %w", err)
	}
	return ParseWAL(data)
}

// ParseWAL decodes WAL bytes: a header line, then one entry per line.
func ParseWAL(data []byte) ([]WALEntry, error) {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("serve: reading wal: %w", err)
		}
		return nil, fmt.Errorf("serve: wal has no header")
	}
	var hdr walHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("serve: wal header: %w", err)
	}
	if hdr.Magic != WALMagic {
		return nil, fmt.Errorf("serve: wal magic %q is not %q", hdr.Magic, WALMagic)
	}
	if hdr.Version != WALVersion {
		return nil, fmt.Errorf("serve: wal version %d is not %d", hdr.Version, WALVersion)
	}
	var entries []WALEntry
	var pendingErr error
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		// An earlier line that failed to parse followed by ANY later line
		// means mid-file corruption, not a torn tail.
		if pendingErr != nil {
			return nil, pendingErr
		}
		var e WALEntry
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			pendingErr = fmt.Errorf("serve: wal line %d: %w", line, err)
			continue
		}
		if err := validateWALEntry(&e, entries); err != nil {
			pendingErr = fmt.Errorf("serve: wal line %d: %w", line, err)
			continue
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: reading wal: %w", err)
	}
	// pendingErr still set here = the failure was on the last line: a torn
	// append, dropped by design.
	return entries, nil
}

// validateWALEntry checks one parsed entry against its predecessors.
func validateWALEntry(e *WALEntry, prev []WALEntry) error {
	if len(prev) > 0 && e.Seq <= prev[len(prev)-1].Seq {
		return fmt.Errorf("seq %d does not follow %d", e.Seq, prev[len(prev)-1].Seq)
	}
	if e.Sample == nil && e.Throttle == 0 {
		return fmt.Errorf("entry %d carries neither sample nor control", e.Seq)
	}
	if e.Sample != nil && e.Throttle != 0 {
		return fmt.Errorf("entry %d carries both sample and control", e.Seq)
	}
	if e.Throttle != 0 && (math.IsNaN(e.Throttle) || e.Throttle < 0 || e.Throttle > 1) {
		return fmt.Errorf("entry %d throttle %g is outside (0, 1]", e.Seq, e.Throttle)
	}
	return nil
}
