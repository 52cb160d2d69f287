package main

import (
	"strings"
	"testing"
)

// TestRunFlagValidation pins the run-shape flag contract: -scale 0
// used to panic with an integer divide-by-zero in -record, and -ops 0
// reported NaN trace statistics. Both are flag errors now.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		f       runFlags
		wantErr string // substring; empty = must pass
	}{
		{name: "defaults", f: runFlags{Scale: 8, Ops: 50_000}},
		{name: "scale one", f: runFlags{Scale: 1, Ops: 1}},
		{name: "zero scale", f: runFlags{Scale: 0, Ops: 1000}, wantErr: "-scale divides the footprint and must be >= 1"},
		{name: "negative scale", f: runFlags{Scale: -4, Ops: 1000}, wantErr: "got -4"},
		{name: "zero ops", f: runFlags{Scale: 8, Ops: 0}, wantErr: "-ops must be >= 1"},
	}
	for _, c := range cases {
		err := c.f.validate()
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}
