package main

import (
	"fmt"
	"sync"
)

// onceGuard refuses to time a workload twice in one process. The
// experiments package keeps process-wide sweep memos (fig10, fig11,
// backends), so a second in-process sweep would time memo hits instead
// of the simulator; every workload is therefore measured in a fresh
// process.
type onceGuard struct {
	mu    sync.Mutex
	timed map[string]bool
}

// claim marks name as timed, failing if it already was.
func (g *onceGuard) claim(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.timed[name] {
		return fmt.Errorf("workload %s already timed in this process; run it in a fresh process", name)
	}
	if g.timed == nil {
		g.timed = map[string]bool{}
	}
	g.timed[name] = true
	return nil
}
