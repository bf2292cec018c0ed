package store

import (
	"encoding/json"

	"krum/scenario"
)

// Single-flight: in-flight execution dedup, the store-level complement
// of content addressing. Content addressing makes a COMPLETED cell
// free to repeat; single-flight makes an IN-PROGRESS cell free to
// repeat — when several callers submit the same key while no result is
// stored yet (two overlapping matrices, N racing goroutines, a fleet
// of scenariod workers pulling from one coordinator), exactly one
// "leader" computes and every "follower" waits for the leader's bytes.
// The result a follower receives is byte-identical to the leader's
// under distsgd.Result's stable encoding, because it IS the leader's
// raw message.

// flight is one in-progress execution. The leader publishes raw (or
// err) before closing done; followers block on done and then read —
// the close is the happens-before edge that makes the fields safe to
// read without the store lock.
type flight struct {
	done chan struct{}
	// raw is the leader's stable-encoded result (nil when err is set).
	raw json.RawMessage
	// err is the leader's compute failure, propagated to every waiter.
	err error
}

// DoCellRaw implements scenario.RawSingleFlighter — the store's one
// single-flight. It returns the cell's canonical result bytes,
// computing them via compute at most once per key across concurrent
// callers. The decision sequence under one lock acquisition is index
// (stored result → hit), then flights (someone is computing → wait),
// then leader (register a flight and compute). A hit returns the
// indexed bytes as they are — no decode — with one exception: a record
// replayed from disk has only had its key checked, so its first hit
// here applies scenario.CanonicalResult; a payload that fails (or a
// sealed line that no longer reads back, see resolve) is dropped and
// the lookup starts over as a miss, so the cell recomputes and the
// fresh record heals the corruption instead of taxing every future
// warm run. The leader persists its bytes through the ordinary append
// path (a failure is reported as storeErr, never as a result error)
// and hands the same bytes to every follower. Compute failures are not
// cached: the flight is removed before waiters are released, so a
// later submission of the same key re-executes.
func (s *Store) DoCellRaw(spec scenario.Spec, compute func() (json.RawMessage, error)) (raw json.RawMessage, shared bool, storeErr, runErr error) {
	c, key, err := identify("", spec, "")
	if err != nil {
		// Unkeyable specs cannot be deduplicated or persisted: compute
		// directly, and surface the key failure as a store problem only
		// when there is a result whose persistence it prevented.
		raw, runErr = compute()
		if runErr != nil {
			return nil, false, nil, runErr
		}
		return raw, false, err, nil
	}

	for {
		s.mu.Lock()
		e, line, ok := s.fetchLocked(key)
		if !ok {
			break // not stored; s.mu stays held for the flight table
		}
		s.mu.Unlock()
		if raw, ok := s.resolve(key, e, line); ok && s.admit(key, e, raw) {
			s.countLookup(true, e.seg != "")
			return raw, true, nil, nil
		}
		// The entry was bad and is gone: look again.
	}
	if f, ok := s.flights[key]; ok {
		s.stats.FlightWaits++
		s.mu.Unlock()
		<-f.done
		return f.raw, true, nil, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.stats.Misses++
	s.mu.Unlock()

	raw, runErr = compute()
	if runErr != nil {
		f.err = runErr
		s.removeFlight(key)
		close(f.done)
		return nil, false, nil, runErr
	}
	storeErr = s.appendRecord(record{Key: key, Version: Version, Spec: c, Result: raw})
	// Publish to followers only after the index holds the result (via
	// appendRecord) — a new submission arriving between flight removal
	// and done-close then hits the index instead of starting a second
	// compute. A failed append still publishes: the bytes are valid,
	// only their persistence failed.
	f.raw = raw
	s.removeFlight(key)
	close(f.done)
	return raw, false, storeErr, nil
}

// admit reports whether a fetched payload may be served by the
// single-flight: at once when the entry is verified, otherwise after
// the canonical check, which marks the entry on success and drops it
// on failure.
func (s *Store) admit(key string, e entry, raw json.RawMessage) bool {
	if e.verified {
		return true
	}
	_, ok := scenario.CanonicalResult(raw)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ok {
		s.dropLocked(key, e)
		return false
	}
	id := idOf(key)
	if cur, ok := s.index[id]; ok && cur.sameRecord(e) {
		cur.verified = true
		s.index[id] = cur
	}
	return true
}

// removeFlight drops a finished flight from the in-flight table.
func (s *Store) removeFlight(key string) {
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
}
