package main

import (
	"cmp"
	"slices"
	"strings"
)

// The coordinator's one scheduler. NewServer starts Options.Workers
// slot goroutines; each takes the next unstarted cell across every live
// matrix, runs it through executeCell (store single-flight, then fleet
// or local) and comes back for another. Every cell, whether a store
// hit, run locally or dispatched to a worker, holds its slot while it
// executes; the fleet serves the dispatched ones in the order they
// arrive. The order is beforeLocked's, and nothing else ranks cells:
// strictly higher priority first; within a priority, the tenant
// holding the fewest slots (so two equal-priority tenants each hold
// about half the pool however lopsided their backlogs are), then the
// tenant picked least recently, then the tenant name; within one
// tenant's priority, live matrices take turns one cell each, in the
// order they joined. The scheduler's state — Server.runs, tenants and
// picks, and each run's next and turn — is guarded by Server.mu.

// tenantSlots is one tenant's share of the pool.
type tenantSlots struct {
	held     int
	lastPick uint64
}

// schedule hands a registered run to the scheduler, after its submit
// event is journaled (so a done event can never precede it). A run
// that arrives after Stop has no cell started and is aborted at once.
func (s *Server) schedule(run *matrixRun) {
	s.mu.Lock()
	stopped := s.stopped
	if !stopped {
		s.picks++
		run.turn = s.picks
		s.runs = append(s.runs, run)
		s.wake.Broadcast()
	}
	s.mu.Unlock()
	if stopped {
		s.finish(run, true)
	}
}

// slot is one of the pool's goroutines: it runs the cells the
// scheduler grants it, one at a time, until Stop, and finishes each
// matrix whose last cell it records.
func (s *Server) slot() {
	defer s.wg.Done()
	var prev *matrixRun
	for {
		run, i := s.next(prev)
		if run == nil {
			return
		}
		if run.record(s.executeCell(i, run.cells[i], run.tenant)) {
			s.finish(run, false)
		}
		prev = run
	}
}

// next hands back the slot prev's cell held (nil when the caller held
// none), then blocks until a cell may start and grants it the slot:
// the first run by beforeLocked gives up its next unstarted cell and
// goes to the back of its turn, and leaves runs once it has none left.
// run is nil once Stop has begun.
func (s *Server) next(prev *matrixRun) (run *matrixRun, i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev != nil {
		ts := s.tenants[prev.tenant]
		ts.held--
		s.tenants[prev.tenant] = ts
	}
	for !s.stopped {
		for _, r := range s.runs {
			if run == nil || s.beforeLocked(r, run) {
				run = r
			}
		}
		if run == nil {
			s.wake.Wait()
			continue
		}
		s.picks++
		run.turn = s.picks
		s.tenants[run.tenant] = tenantSlots{held: s.tenants[run.tenant].held + 1, lastPick: s.picks}
		if run.next++; run.next == len(run.cells) {
			s.runs = slices.DeleteFunc(s.runs, func(r *matrixRun) bool { return r == run })
		}
		return run, run.next - 1
	}
	return nil, 0
}

// beforeLocked is the scheduling order (see the file comment); callers
// hold s.mu. Two runs of one tenant tie on everything but their turn.
func (s *Server) beforeLocked(a, b *matrixRun) bool {
	ta, tb := s.tenants[a.tenant], s.tenants[b.tenant]
	return cmp.Or(
		cmp.Compare(b.priority, a.priority),
		cmp.Compare(ta.held, tb.held),
		cmp.Compare(ta.lastPick, tb.lastPick),
		strings.Compare(a.tenant, b.tenant),
		cmp.Compare(a.turn, b.turn),
	) < 0
}

// classBacklog is one (tenant, priority) class's unstarted cells.
type classBacklog struct {
	tenant   string
	priority int
	cells    int
}

// backlog counts the unstarted cells of every class that has any,
// sorted by tenant then priority, for /metrics.
func (s *Server) backlog() []classBacklog {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []classBacklog
	for _, run := range s.runs {
		i, found := slices.BinarySearchFunc(out, run, func(c classBacklog, r *matrixRun) int {
			return cmp.Or(strings.Compare(c.tenant, r.tenant), cmp.Compare(c.priority, r.priority))
		})
		if !found {
			out = slices.Insert(out, i, classBacklog{tenant: run.tenant, priority: run.priority})
		}
		out[i].cells += len(run.cells) - run.next
	}
	return out
}
