// Package journal makes experiment runs durable: an append-only JSONL
// record of every completed grid cell, written as cells finish and
// replayed on resume so an interrupted sweep re-executes only the
// remainder. A journaled run SIGKILLed at any point and resumed
// produces byte-identical artifacts and text output to an
// uninterrupted run (DESIGN.md §11).
//
// Each line is one cell: a deterministic key (grid label + cell index
// + an options content-hash), the cell's row serialized as JSON, and
// an FNV-64a checksum of the row bytes. Loading is tolerant of a torn
// tail — a process killed mid-write leaves at most one partial line,
// which fails to parse or checksum and is dropped (and counted)
// rather than poisoning the resume.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
)

// FileName is the journal's file name inside its run directory.
const FileName = "journal.jsonl"

// entry is one journaled cell (one JSONL line).
type entry struct {
	Label string          `json:"label"`
	Index int             `json:"index"`
	Hash  string          `json:"hash"`
	Row   json.RawMessage `json:"row"`
	Sum   string          `json:"sum"`
}

func key(label string, index int, hash string) string {
	return label + "\x00" + strconv.Itoa(index) + "\x00" + hash
}

func checksum(row []byte) string {
	h := fnv.New64a()
	h.Write(row)
	return strconv.FormatUint(h.Sum64(), 16)
}

// Stats summarizes a journal's activity.
type Stats struct {
	// Loaded is the number of valid entries read at Open.
	Loaded int
	// Dropped counts torn or corrupt lines skipped at Open.
	Dropped int
	// Recorded counts cells appended by this process.
	Recorded int
	// Replayed counts lookups served from loaded entries.
	Replayed int
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("%d cells loaded (%d corrupt dropped), %d replayed, %d recorded",
		s.Loaded, s.Dropped, s.Replayed, s.Recorded)
}

// Journal is a durable cell record: lookups replay previously
// completed cells, records append new ones. Safe for concurrent use —
// grid cells complete on worker goroutines.
type Journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	w       *bufio.Writer
	entries map[string]json.RawMessage
	stats   Stats
}

// Open loads dir/journal.jsonl (creating dir and the file as needed)
// and opens it for appending. Corrupt or torn lines are dropped and
// counted, never fatal: the journal is an accelerant, and a damaged
// entry just means that cell re-executes.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating dir: %w", err)
	}
	path := filepath.Join(dir, FileName)
	j := &Journal{path: path, entries: map[string]json.RawMessage{}}
	var restore []byte
	if buf, err := os.ReadFile(path); err == nil {
		// A process killed mid-Record leaves a final line without its
		// terminating newline. Appending after it would fuse the torn
		// fragment with the next record into one corrupt line that the
		// following resume drops — so the file is cut back to the last
		// line boundary before opening for append. If the tail is a
		// complete record that lost only its newline, it is kept and
		// re-appended (terminated) once the writer is open.
		valid := bytes.LastIndexByte(buf, '\n') + 1
		tail := buf[valid:]
		if len(tail) > 0 {
			if err := os.Truncate(path, int64(valid)); err != nil {
				return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
			}
		}
		for _, line := range bytes.Split(buf[:valid], []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			if !j.loadLine(line) {
				j.stats.Dropped++
			}
		}
		if len(bytes.TrimSpace(tail)) > 0 {
			if j.loadLine(tail) {
				restore = tail
			} else {
				j.stats.Dropped++
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	if restore != nil {
		if _, err := j.w.Write(append(restore, '\n')); err != nil {
			return nil, fmt.Errorf("journal: restoring tail of %s: %w", path, err)
		}
		if err := j.w.Flush(); err != nil {
			return nil, fmt.Errorf("journal: restoring tail of %s: %w", path, err)
		}
	}
	return j, nil
}

// loadLine parses one journal line and stores it if it checksums,
// reporting whether the line was valid.
func (j *Journal) loadLine(line []byte) bool {
	var e entry
	if err := json.Unmarshal(line, &e); err != nil || e.Sum != checksum(e.Row) {
		return false
	}
	j.entries[key(e.Label, e.Index, e.Hash)] = e.Row
	j.stats.Loaded++
	return true
}

// Path returns the journal file's path.
func (j *Journal) Path() string { return j.path }

// Lookup returns the journaled row for (label, index, hash), if any.
// It serves entries loaded at Open and entries recorded by this
// process.
func (j *Journal) Lookup(label string, index int, hash string) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	row, ok := j.entries[key(label, index, hash)]
	if ok {
		j.stats.Replayed++
	}
	return row, ok
}

// Record journals one completed cell: the row is serialized, verified
// to round-trip through JSON losslessly (a row type with unexported or
// json:"-" fields would otherwise replay as silent zeros), and
// appended with its checksum. The line is flushed to the OS before
// Record returns, so a cell recorded here survives a SIGKILL. A row
// the journal already holds under the same key is not appended again:
// experiments that share a grid (fig10a, fig10b and fig12 each run
// "fig10") may finish the same cell concurrently.
func (j *Journal) Record(label string, index int, hash string, row any) error {
	raw, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("journal: encoding %s[%d] row: %w", label, index, err)
	}
	if err := roundTrips(row, raw); err != nil {
		return fmt.Errorf("journal: %s[%d]: %w", label, index, err)
	}
	line, err := json.Marshal(entry{
		Label: label, Index: index, Hash: hash, Row: raw, Sum: checksum(raw),
	})
	if err != nil {
		return fmt.Errorf("journal: encoding %s[%d] entry: %w", label, index, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	k := key(label, index, hash)
	if old, ok := j.entries[k]; ok && bytes.Equal(old, raw) {
		return nil
	}
	j.entries[k] = raw
	j.stats.Recorded++
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("journal: appending: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: flushing: %w", err)
	}
	return nil
}

// roundTrips verifies that row decodes from raw back to a deeply equal
// value, the property resume correctness rests on.
func roundTrips(row any, raw []byte) error {
	if row == nil {
		return nil
	}
	rv := reflect.New(reflect.TypeOf(row))
	if err := json.Unmarshal(raw, rv.Interface()); err != nil {
		return fmt.Errorf("row type %T does not decode from its own encoding: %w", row, err)
	}
	if !reflect.DeepEqual(rv.Elem().Interface(), row) {
		return fmt.Errorf("row type %T does not round-trip through JSON (unexported or json:\"-\" fields?)", row)
	}
	return nil
}

// Stats returns a snapshot of the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	ferr := j.w.Flush()
	cerr := j.f.Close()
	j.f = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}

// ContentHash condenses the strings that determine a cell's output
// (fidelity options, seed, row type) into a short stable hex token for
// entry keys: a journal written under one configuration never replays
// into another.
func ContentHash(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}
