package store

import (
	"encoding/json"
	"fmt"
	"strings"

	"krum/attack"
	"krum/internal/core"
	"krum/internal/sgd"
	"krum/internal/vec"
	"krum/scenario"
)

// Auxiliary records: content-addressed storage for harness Monte-Carlo
// cells (table1's selection rates, the ablation's per-coordinate
// errors) that are pure functions of a PARTIAL scenario spec plus a
// free-form parameter string, rather than of a full distsgd run. They
// share the JSONL file, the Version salt, the corruption rules and the
// counters with cell records; the kind participates in every key, so
// the two families can never collide, and old readers skip aux lines
// as key mismatches instead of serving them.

// CanonicalAux resolves the axes a partial spec actually sets to their
// registry-canonical forms, leaving unset axes empty — the identity
// auxiliary keys hash. Unlike Canonical it tolerates specs without a
// workload or schedule (harness Monte-Carlo grids sweep only rules and
// attacks), and like Canonical it is idempotent and clears the
// cosmetic Name.
func CanonicalAux(s scenario.Spec) (scenario.Spec, error) {
	c := s
	c.Name = ""
	if strings.TrimSpace(s.Rule) != "" {
		rule, err := core.ParseRuleIn(core.SpecContext{N: s.N, F: s.F}, s.Rule)
		if err != nil {
			return scenario.Spec{}, err
		}
		c.Rule = rule.Name()
	} else {
		c.Rule = ""
	}
	switch {
	case strings.TrimSpace(s.Attack) == "":
		c.Attack = "none"
	default:
		atk, err := attack.Parse(s.Attack)
		if err != nil {
			return scenario.Spec{}, err
		}
		c.Attack = atk.Name()
	}
	if strings.TrimSpace(s.Schedule) != "" {
		sched, err := sgd.ParseSchedule(s.Schedule)
		if err != nil {
			return scenario.Spec{}, err
		}
		c.Schedule = sched.Name()
	} else {
		c.Schedule = ""
	}
	if strings.TrimSpace(s.Workload) != "" {
		wl, err := canonicalWorkload(s.Workload, s.Seed)
		if err != nil {
			return scenario.Spec{}, err
		}
		c.Workload = wl
	} else {
		c.Workload = ""
	}
	return c, nil
}

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

// KeyAux returns the content address of an auxiliary record:
// "sha256:" plus the hex SHA-256 of the Version salt and the JSON of
// (kind, params, canonical partial spec). Everything result-affecting
// must be in the spec or in params — as with Key, a changed identity
// recomputes and a bumped Version orphans every stored entry at once.
func KeyAux(kind string, s scenario.Spec, params string) (string, error) {
	c, err := CanonicalAux(s)
	if err != nil {
		return "", err
	}
	return keyOfAuxCanonical(kind, c, params)
}

// keyOfAuxCanonical hashes an already-canonical aux identity under the
// active order family.
func keyOfAuxCanonical(kind string, c scenario.Spec, params string) (string, error) {
	return keyOfAuxCanonicalWith(vec.KernelOrder(), kind, c, params)
}

// keyOfAuxCanonicalWith hashes an already-canonical aux identity under
// an explicit order-family salt (the foreign re-derivation path).
func keyOfAuxCanonicalWith(order, kind string, c scenario.Spec, params string) (string, error) {
	if strings.TrimSpace(kind) == "" {
		return "", fmt.Errorf("empty aux kind: %w", ErrStore)
	}
	blob, err := json.Marshal(auxIdentity{Kind: kind, Params: params, Spec: c})
	if err != nil {
		return "", fmt.Errorf("marshaling aux identity for hashing: %w: %w", err, ErrStore)
	}
	return hashKeyWith(order, blob), nil
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
	raw, cold, ok := s.get(key)
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
	c, err := CanonicalAux(spec)
	if err != nil {
		return fmt.Errorf("canonicalizing aux spec: %w", err)
	}
	key, err := keyOfAuxCanonical(kind, c, params)
	if err != nil {
		return err
	}
	return s.appendRecord(record{Key: key, Version: Version, Kind: kind, Params: params, Spec: c, Result: result})
}
