package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type row struct {
	Name  string
	Vals  [3]float64
	Count uint64
}

func TestRecordLookupRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := row{Name: "gcc", Vals: [3]float64{1.25, 0.1 + 0.2, 3}, Count: 1 << 60}
	hash := ContentHash("quick", "42")
	if err := j.Record("fig2", 3, hash, want); err != nil {
		t.Fatal(err)
	}
	// Same process: served from memory.
	raw, ok := j.Lookup("fig2", 3, hash)
	if !ok {
		t.Fatal("recorded cell not found")
	}
	var got row
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh process: served from disk.
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st := j2.Stats(); st.Loaded != 1 || st.Dropped != 0 {
		t.Fatalf("stats after reopen: %+v", st)
	}
	raw, ok = j2.Lookup("fig2", 3, hash)
	if !ok {
		t.Fatal("journaled cell lost across reopen")
	}
	var got2 row
	if err := json.Unmarshal(raw, &got2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("disk round trip: got %+v, want %+v", got2, want)
	}
	if st := j2.Stats(); st.Replayed != 1 {
		t.Fatalf("replay not counted: %+v", st)
	}
}

// TestKeying: a lookup only matches the exact (label, index, hash)
// triple — a changed configuration (different content hash) must not
// replay stale rows.
func TestKeying(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record("g", 1, "h1", row{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label string
		index int
		hash  string
		want  bool
	}{
		{"g", 1, "h1", true},
		{"g", 1, "h2", false},
		{"g", 2, "h1", false},
		{"other", 1, "h1", false},
	} {
		if _, ok := j.Lookup(c.label, c.index, c.hash); ok != c.want {
			t.Errorf("Lookup(%q, %d, %q) = %v, want %v", c.label, c.index, c.hash, ok, c.want)
		}
	}
}

// TestRecordSkipsHeldRow: recording a row the journal already holds
// under the same key appends nothing; a different row under the key
// appends and becomes the one replayed.
func TestRecordSkipsHeldRow(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := j.Record("g", 1, "h", row{Name: "a"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Record("g", 1, "h", row{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats().Recorded; got != 2 {
		t.Fatalf("recorded %d rows, want 2 (the repeat skipped)", got)
	}
	j.Close()
	buf, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf, []byte("\n")); lines != 2 {
		t.Fatalf("journal holds %d lines, want 2", lines)
	}
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	raw, ok := j2.Lookup("g", 1, "h")
	if !ok || !bytes.Contains(raw, []byte(`"b"`)) {
		t.Fatalf("replayed %s, want the later row", raw)
	}
}

// TestTornTailDropped: a partial final line (the SIGKILL-mid-write
// case) is dropped and counted; the intact prefix survives.
func TestTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Record("g", i, "h", row{Name: "x", Count: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	path := filepath.Join(dir, FileName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last line in half.
	torn := buf[:len(buf)-len("\n")-20]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	st := j2.Stats()
	if st.Loaded != 2 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want 2 loaded / 1 dropped", st)
	}
	if _, ok := j2.Lookup("g", 1, "h"); !ok {
		t.Fatal("intact entry lost")
	}
	if _, ok := j2.Lookup("g", 2, "h"); ok {
		t.Fatal("torn entry replayed")
	}
}

// TestResumeAfterKillMidWrite: the full SIGKILL-mid-write resume
// cycle. A kill mid-Record leaves a partial final line with no
// terminating newline; the resumed process re-executes that cell and
// Records it. Pre-fix, Open dropped the torn tail from memory but left
// it in the file, so the O_APPEND write fused the torn fragment with
// the re-recorded cell into one corrupt line — and the *next* resume
// silently lost that cell. Open must truncate the torn tail so every
// line it appends afterwards starts at a line boundary.
func TestResumeAfterKillMidWrite(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Record("g", i, "h", row{Name: "x", Count: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// The kill: the final Record's line is half-written, no newline.
	path := filepath.Join(dir, FileName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf[:len(buf)-len("\n")-20], 0o644); err != nil {
		t.Fatal(err)
	}

	// The resume: the torn cell re-executes and is re-recorded.
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Stats(); st.Loaded != 2 || st.Dropped != 1 {
		t.Fatalf("resume stats = %+v, want 2 loaded / 1 dropped", st)
	}
	if err := j2.Record("g", 2, "h", row{Name: "x", Count: 2}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	// A second resume: nothing may be corrupt, and the cell recorded by
	// the first resume must replay.
	j3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if st := j3.Stats(); st.Loaded != 3 || st.Dropped != 0 {
		t.Fatalf("second-resume stats = %+v, want 3 loaded / 0 dropped", st)
	}
	if _, ok := j3.Lookup("g", 2, "h"); !ok {
		t.Fatal("cell re-recorded after the kill was lost by the next resume")
	}
}

// TestTornTailCompleteRecordKept: a kill can also land *between* the
// record bytes and the newline, leaving a complete, checksummed final
// line that merely lacks its terminator. That record is real data —
// Open keeps it and restores the line boundary rather than forcing the
// cell to recompute.
func TestTornTailCompleteRecordKept(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("g", 0, "h", row{Name: "x", Count: 41}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("g", 1, "h", row{Name: "x", Count: 42}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	path := filepath.Join(dir, FileName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf[:len(buf)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Stats(); st.Loaded != 2 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 2 loaded / 0 dropped", st)
	}
	if _, ok := j2.Lookup("g", 1, "h"); !ok {
		t.Fatal("complete-but-unterminated record lost")
	}
	if err := j2.Record("g", 2, "h", row{Name: "x", Count: 43}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if st := j3.Stats(); st.Loaded != 3 || st.Dropped != 0 {
		t.Fatalf("after append: stats = %+v, want 3 loaded / 0 dropped", st)
	}
}

// TestChecksumRejected: a bit-flipped row fails its checksum and is
// dropped instead of replaying corrupt data.
func TestChecksumRejected(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("g", 0, "h", row{Name: "victim", Count: 7}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	path := filepath.Join(dir, FileName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(string(buf), "victim", "mangle", 1)
	if corrupted == string(buf) {
		t.Fatal("corruption did not apply")
	}
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st := j2.Stats(); st.Loaded != 0 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want 0 loaded / 1 dropped", st)
	}
	if _, ok := j2.Lookup("g", 0, "h"); ok {
		t.Fatal("corrupt entry replayed")
	}
}

// TestRecordRejectsLossyRows: a row type whose JSON encoding loses
// state (unexported fields) must fail loudly at Record time, not replay
// silent zeros later.
func TestRecordRejectsLossyRows(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	type lossy struct {
		Public int
		hidden int
	}
	err = j.Record("g", 0, "h", lossy{Public: 1, hidden: 2})
	if err == nil || !strings.Contains(err.Error(), "round-trip") {
		t.Fatalf("lossy row not rejected: %v", err)
	}
	if _, ok := j.Lookup("g", 0, "h"); ok {
		t.Fatal("rejected row was stored")
	}
}

func TestContentHashStable(t *testing.T) {
	a := ContentHash("quick", "42")
	if a != ContentHash("quick", "42") {
		t.Fatal("ContentHash not deterministic")
	}
	if a == ContentHash("quick", "43") || a == ContentHash("quick42") {
		t.Fatal("ContentHash collisions across distinct part lists")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Loaded: 2, Dropped: 1, Recorded: 3, Replayed: 2}.String()
	for _, want := range []string{"2 cells loaded", "1 corrupt", "2 replayed", "3 recorded"} {
		if !strings.Contains(s, want) {
			t.Fatalf("stats string %q missing %q", s, want)
		}
	}
}
