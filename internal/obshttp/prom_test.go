package obshttp

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compresso/internal/experiments"
	"compresso/internal/obs"
	"compresso/internal/workload"
)

func expositionSnapshot() obs.Snapshot {
	return obs.Snapshot{
		Counters: map[string]uint64{
			"a.count":             1,
			"memctl.demand_reads": 42,
		},
		Gauges: map[string]float64{"run.ratio": 2.5},
		Hists: map[string]obs.HistSnapshot{
			"memctl.page_size_chunks": {
				Total:   10,
				Buckets: map[string]uint64{"1": 4, "2": 1, "8": 5},
			},
		},
	}
}

// TestExpositionGolden pins the full exposition byte-for-byte: metric
// ordering, name mapping, label escaping (quote, backslash, newline)
// and cumulative histogram rendering are all part of the contract.
func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	labels := map[string]string{"run": "we\"ird\\\n"}
	if err := WriteExposition(&buf, expositionSnapshot(), labels); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.String(), want)
	}
	// The golden must itself satisfy the validator the smoke target uses.
	if err := CheckExposition(bytes.NewReader(want)); err != nil {
		t.Fatalf("golden fails CheckExposition: %v", err)
	}

	// The memo harness metrics' names and kinds are part of the same
	// contract.
	reg := obs.NewRegistry()
	registerSizeMemo(reg, workload.SizeMemo{Tables: 3, Bytes: 24576, Hits: 9, Misses: 3})
	registerRunMemo(reg, experiments.RunMemo{Entries: 5, Hits: 11, Misses: 5, Bypassed: 2})
	buf.Reset()
	if err := WriteExposition(&buf, reg.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	golden = filepath.Join("testdata", "memos.golden")
	if want, err = os.ReadFile(golden); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("memo exposition drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.String(), want)
	}
	if err := CheckExposition(bytes.NewReader(want)); err != nil {
		t.Fatalf("memo golden fails CheckExposition: %v", err)
	}
}

func TestExpositionNoLabels(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExposition(&buf, expositionSnapshot(), nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "memctl_demand_reads 42\n") {
		t.Fatalf("missing plain sample:\n%s", out)
	}
	if err := CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("unlabeled exposition fails validation: %v", err)
	}
}

func TestExpositionDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	WriteExposition(&a, expositionSnapshot(), map[string]string{"run": "x"})
	WriteExposition(&b, expositionSnapshot(), map[string]string{"run": "x"})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("exposition not deterministic across renders")
	}
}

func TestCheckExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":  "foo 1\n",
		"bad metric name":      "# TYPE 9bad counter\n9bad 1\n",
		"bad value":            "# TYPE foo counter\nfoo one\n",
		"unquoted label":       "# TYPE foo counter\nfoo{a=b} 1\n",
		"unterminated label":   "# TYPE foo counter\nfoo{a=\"b 1\n",
		"unknown type":         "# TYPE foo widget\nfoo 1\n",
		"duplicate TYPE":       "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n",
		"malformed comment":    "# NOPE foo\nfoo 1\n",
		"bad timestamp":        "# TYPE foo counter\nfoo 1 abc\n",
		"no samples":           "# TYPE foo counter\n",
		"missing sample value": "# TYPE foo counter\nfoo\n",
		"histogram buckets not cumulative": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 5\nh_count 5\n",
		"histogram buckets out of order": "# TYPE h histogram\n" +
			"h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n",
		"histogram bad le bound": "# TYPE h histogram\n" +
			"h_bucket{le=\"wide\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"histogram bucket without le": "# TYPE h histogram\n" +
			"h_bucket 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"histogram missing +Inf bucket": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram missing _count": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_sum 1\n",
		"histogram missing _sum": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"histogram count disagrees with +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 4\n",
		"histogram bare sample": "# TYPE h histogram\nh 9\n",
	}
	for name, in := range cases {
		if err := CheckExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestCheckExpositionAccepts(t *testing.T) {
	cases := map[string]string{
		"counter and minimal histogram": "# HELP foo a help line\n" +
			"# TYPE foo counter\n" +
			"foo{a=\"x\",b=\"y\"} 12 1700000000\n" +
			"\n" +
			"# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 3\n" +
			"h_sum 9\n" +
			"h_count 3\n",
		// Two label sets of one histogram are distinct series; equal
		// cumulative counts across adjacent buckets are legal.
		"labeled histogram series": "# TYPE rt histogram\n" +
			"rt_bucket{run=\"a\",le=\"1\"} 1\n" +
			"rt_bucket{run=\"a\",le=\"2\"} 1\n" +
			"rt_bucket{run=\"a\",le=\"+Inf\"} 2\n" +
			"rt_sum{run=\"a\"} 3\n" +
			"rt_count{run=\"a\"} 2\n" +
			"rt_bucket{run=\"b\",le=\"+Inf\"} 0\n" +
			"rt_sum{run=\"b\"} 0\n" +
			"rt_count{run=\"b\"} 0\n",
	}
	for name, in := range cases {
		if err := CheckExposition(strings.NewReader(in)); err != nil {
			t.Errorf("%s: rejected valid exposition: %v", name, err)
		}
	}
}
