package memctl

import (
	"strings"
	"testing"

	"compresso/internal/compress"
)

func TestConfigKeyCanonical(t *testing.T) {
	type cfg struct {
		N     int
		F     float64
		S     []int
		M     map[string]int
		Codec compress.Codec
		Hook  func() `key:"-"`
		seen  bool
	}
	base := cfg{N: 1, F: 0.5, S: []int{1, 2}, M: map[string]int{"a": 1, "b": 2}, Codec: compress.BPC{}}
	key := ConfigKey(base)

	// Map order and tagged fields do not matter; unexported ones do.
	same := base
	same.M = map[string]int{"b": 2, "a": 1}
	same.Hook = func() {}
	if ConfigKey(same) != key {
		t.Fatal("key depends on map order or on a key:\"-\" field")
	}
	for name, c := range map[string]cfg{
		"unexported":   {N: 1, F: 0.5, S: []int{1, 2}, M: base.M, Codec: compress.BPC{}, seen: true},
		"slice length": {N: 1, F: 0.5, S: []int{1, 2, 0}, M: base.M, Codec: compress.BPC{}},
		"float bits":   {N: 1, F: 0.5000000001, S: []int{1, 2}, M: base.M, Codec: compress.BPC{}},
		"codec type":   {N: 1, F: 0.5, S: []int{1, 2}, M: base.M, Codec: compress.BDI{}},
		"codec field":  {N: 1, F: 0.5, S: []int{1, 2}, M: base.M, Codec: compress.BPC{DisableBestOf: true}},
		"nil codec":    {N: 1, F: 0.5, S: []int{1, 2}, M: base.M},
	} {
		if ConfigKey(c) == key {
			t.Errorf("%s: changed input, same key", name)
		}
	}
	// The values' boundaries are part of the key.
	if ConfigKey("ab", "c") == ConfigKey("a", "bc") {
		t.Fatal("ConfigKey concatenates values ambiguously")
	}
}

func TestConfigKeyRefusesUntaggedReferences(t *testing.T) {
	for name, v := range map[string]any{
		"func":    struct{ F func() }{},
		"pointer": struct{ P *int }{},
		"chan":    struct{ C chan int }{},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(r.(string), "key:") {
					t.Errorf("%s field: recovered %v, want a panic asking for the tag", name, r)
				}
			}()
			ConfigKey(v)
		}()
	}
}
