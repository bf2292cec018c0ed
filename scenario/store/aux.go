package store

import (
	"encoding/json"
	"fmt"
	"strings"

	"krum/scenario"
)

// Auxiliary records: content-addressed storage for harness Monte-Carlo
// cells (table1's selection rates, the ablation's per-coordinate
// errors) that are pure functions of a PARTIAL scenario spec plus a
// free-form parameter string, rather than of a full distsgd run. They
// share the JSONL file, the Version salt, the corruption rules and the
// counters with cell records; the kind participates in every key, so
// the two families can never collide, and old readers skip aux lines
// as key mismatches instead of serving them. A partial spec's identity
// is Spec.Canonical too, which leaves the axes a Monte-Carlo cell does
// not set empty.

// auxIdentity is the hashed preimage of an auxiliary key — JSON keeps
// the three components unambiguous whatever bytes params contains.
type auxIdentity struct {
	// Kind is the record family ("table1", "ablation", ...).
	Kind string `json:"kind"`
	// Params is the kind's extra identity string.
	Params string `json:"params"`
	// Spec is the canonical partial spec.
	Spec scenario.Spec `json:"spec"`
}

// KeyAux returns the content address of an auxiliary record: the JSON
// of (kind, params, canonical partial spec), hashed like a cell's
// identity (see address). Everything result-affecting
// must be in the spec or in params — as with Key, a changed identity
// recomputes and a bumped Version orphans every stored entry at once.
func KeyAux(kind string, s scenario.Spec, params string) (string, error) {
	_, key, err := identifyAux(kind, s, params)
	return key, err
}

// identifyAux is identify for an auxiliary record, which must name its
// kind.
func identifyAux(kind string, s scenario.Spec, params string) (scenario.Spec, string, error) {
	if strings.TrimSpace(kind) == "" {
		return scenario.Spec{}, "", fmt.Errorf("empty aux kind: %w", ErrStore)
	}
	return identify(kind, s, params)
}

// LookupAux returns the stored payload for an auxiliary identity, if
// any. As with Lookup, every internal failure is a miss — the harness
// then recomputes, which is always safe. The returned bytes are a
// private copy the caller may retain.
func (s *Store) LookupAux(kind string, spec scenario.Spec, params string) (json.RawMessage, bool) {
	key, err := KeyAux(kind, spec, params)
	if err != nil {
		s.countLookup(false, false)
		return nil, false
	}
	raw, e, ok := s.get(key)
	cold := e.seg != ""
	s.countLookup(ok, cold)
	if !ok {
		return nil, false
	}
	if !cold {
		raw = append(json.RawMessage(nil), raw...) // a cold read is private already
	}
	return raw, true
}

// SaveAux persists an auxiliary payload (any valid JSON) under its
// identity, through the same append-and-index path as Save. The stored
// spec is the canonical partial form, so reloads re-derive the same
// key.
func (s *Store) SaveAux(kind string, spec scenario.Spec, params string, result json.RawMessage) error {
	if !json.Valid(result) {
		return fmt.Errorf("aux payload for kind %q is not valid JSON: %w", kind, ErrStore)
	}
	c, key, err := identifyAux(kind, spec, params)
	if err != nil {
		return fmt.Errorf("keying aux spec: %w", err)
	}
	return s.appendRecord(record{Key: key, Version: Version, Kind: kind, Params: params, Spec: c, Result: result})
}
