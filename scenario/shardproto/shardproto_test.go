package shardproto

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"krum/scenario"
)

// sampleSpec is a structurally-plausible cell for round-trip tests.
func sampleSpec() scenario.Spec {
	return scenario.Spec{
		Workload:  "gmm(k=3,dim=6)",
		Rule:      "krum",
		Attack:    "gaussian(sigma=200)",
		Schedule:  "const(gamma=0.1)",
		N:         9,
		F:         2,
		Rounds:    8,
		BatchSize: 8,
		Seed:      7,
	}
}

// TestDecodeRoundTrips pins Encode∘Decode identity for every message
// type: what one side marshals, the other side's strict decoder
// accepts and reproduces exactly.
func TestDecodeRoundTrips(t *testing.T) {
	tasks := []Task{{ID: "t1", Spec: sampleSpec()}}
	for name, tc := range map[string]struct {
		msg    any
		decode func([]byte) (any, error)
	}{
		"join request": {JoinRequest{Slots: 4, Version: "krum-store-v1", Kernel: "pair2"}, func(b []byte) (any, error) { return DecodeJoinRequest(b) }},
		"join response": {JoinResponse{WorkerID: "w1", Token: "c0ffee", LeaseMillis: 10_000},
			func(b []byte) (any, error) { return DecodeJoinResponse(b) }},
		"poll request":        {PollRequest{WorkerID: "w1", Token: "c0ffee", MaxTasks: 1}, func(b []byte) (any, error) { return DecodePollRequest(b) }},
		"poll response empty": {PollResponse{}, func(b []byte) (any, error) { return DecodePollResponse(b) }},
		"poll response task":  {PollResponse{Tasks: tasks}, func(b []byte) (any, error) { return DecodePollResponse(b) }},
		"heartbeat": {HeartbeatRequest{WorkerID: "w1", Token: "c0ffee", TaskIDs: []string{"t1"}},
			func(b []byte) (any, error) { return DecodeHeartbeatRequest(b) }},
		"result ok": {ResultRequest{WorkerID: "w1", Token: "c0ffee", TaskID: "t1", Result: json.RawMessage(`{"history":[]}`)},
			func(b []byte) (any, error) { return DecodeResultRequest(b) }},
		"result error": {ResultRequest{WorkerID: "w1", Token: "c0ffee", TaskID: "t1", Error: "bad spec"},
			func(b []byte) (any, error) { return DecodeResultRequest(b) }},
	} {
		blob, err := json.Marshal(tc.msg)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		got, err := tc.decode(blob)
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.msg) {
			t.Errorf("%s: round trip %+v != %+v", name, got, tc.msg)
		}
	}
}

// TestDecodeRejectsHostileInput pins the trust boundary: malformed,
// truncated and invariant-violating payloads error with ErrBadMessage.
func TestDecodeRejectsHostileInput(t *testing.T) {
	long := strings.Repeat("x", MaxIDBytes+1)
	for name, tc := range map[string]struct {
		data   string
		decode func([]byte) error
	}{
		"truncated":        {`{"worker_id": "w`, func(b []byte) error { _, err := DecodePollRequest(b); return err }},
		"not json":         {`hello`, func(b []byte) error { _, err := DecodeJoinRequest(b); return err }},
		"empty":            {``, func(b []byte) error { _, err := DecodeJoinRequest(b); return err }},
		"unknown field":    {`{"worker_id": "w1", "token": "t", "admin": true}`, func(b []byte) error { _, err := DecodePollRequest(b); return err }},
		"trailing garbage": {`{"worker_id": "w1", "token": "t"} {"worker_id": "w2"}`, func(b []byte) error { _, err := DecodePollRequest(b); return err }},
		"wrong type":       {`{"worker_id": 7, "token": "t"}`, func(b []byte) error { _, err := DecodePollRequest(b); return err }},
		"empty worker id":  {`{"worker_id": "", "token": "t"}`, func(b []byte) error { _, err := DecodePollRequest(b); return err }},
		"missing token":    {`{"worker_id": "w1"}`, func(b []byte) error { _, err := DecodePollRequest(b); return err }},
		"oversized id":     {`{"worker_id": "` + long + `", "token": "t"}`, func(b []byte) error { _, err := DecodePollRequest(b); return err }},
		"negative slots":   {`{"slots": -1, "version": "v1"}`, func(b []byte) error { _, err := DecodeJoinRequest(b); return err }},
		"huge slots":       {`{"slots": 1000000, "version": "v1"}`, func(b []byte) error { _, err := DecodeJoinRequest(b); return err }},
		"missing version":  {`{"slots": 1}`, func(b []byte) error { _, err := DecodeJoinRequest(b); return err }},
		"missing kernel":   {`{"slots": 1, "version": "v1"}`, func(b []byte) error { _, err := DecodeJoinRequest(b); return err }},
		"oversized kernel": {`{"slots": 1, "version": "v1", "kernel": "` + long + `"}`, func(b []byte) error { _, err := DecodeJoinRequest(b); return err }},
		"zero lease":       {`{"worker_id": "w1", "token": "t", "lease_millis": 0}`, func(b []byte) error { _, err := DecodeJoinResponse(b); return err }},
		"grant sans token": {`{"worker_id": "w1", "lease_millis": 1000}`, func(b []byte) error { _, err := DecodeJoinResponse(b); return err }},
		"task without id":  {`{"tasks": [{"spec": {}}]}`, func(b []byte) error { _, err := DecodePollResponse(b); return err }},
		"no max_tasks":     {`{"worker_id": "w1", "token": "t"}`, func(b []byte) error { _, err := DecodePollRequest(b); return err }},
		"zero max_tasks":   {`{"worker_id": "w1", "token": "t", "max_tasks": 0}`, func(b []byte) error { _, err := DecodePollRequest(b); return err }},
		"neg max_tasks":    {`{"worker_id": "w1", "token": "t", "max_tasks": -1}`, func(b []byte) error { _, err := DecodePollRequest(b); return err }},
		"legacy screened task": {`{"task": {"id": "t2", "spec": {"rule": "krum", "n": 9, "f": 2, "incremental": true, "screened": true}}}`,
			func(b []byte) error { _, err := DecodePollResponse(b); return err }},
		"legacy screened=false in a batch": {`{"tasks": [{"id": "t3", "spec": {"rule": "krum", "n": 9, "f": 2, "screened": false}}]}`,
			func(b []byte) error { _, err := DecodePollResponse(b); return err }},
		"legacy parallel in a batch": {`{"tasks": [{"id": "t4", "spec": {"rule": "krum", "n": 9, "f": 2, "parallel": 4}}]}`,
			func(b []byte) error { _, err := DecodePollResponse(b); return err }},
		"result and error": {`{"worker_id": "w1", "token": "t", "task_id": "t1", "result": {}, "error": "x"}`, func(b []byte) error { _, err := DecodeResultRequest(b); return err }},
		"neither result nor error": {`{"worker_id": "w1", "token": "t", "task_id": "t1"}`,
			func(b []byte) error { _, err := DecodeResultRequest(b); return err }},
		"null result": {`{"worker_id": "w1", "token": "t", "task_id": "t1", "result": null}`,
			func(b []byte) error { _, err := DecodeResultRequest(b); return err }},
	} {
		err := tc.decode([]byte(tc.data))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: error %v does not wrap ErrBadMessage", name, err)
		}
	}
	// The single-task wire forms are gone: no decoder may read one as
	// any message type.
	for name, decode := range map[string]func([]byte) error{
		"join request":  func(b []byte) error { _, err := DecodeJoinRequest(b); return err },
		"join response": func(b []byte) error { _, err := DecodeJoinResponse(b); return err },
		"poll request":  func(b []byte) error { _, err := DecodePollRequest(b); return err },
		"poll response": func(b []byte) error { _, err := DecodePollResponse(b); return err },
		"heartbeat":     func(b []byte) error { _, err := DecodeHeartbeatRequest(b); return err },
		"result":        func(b []byte) error { _, err := DecodeResultRequest(b); return err },
	} {
		for _, seed := range singleFormSeeds {
			if err := decode([]byte(seed)); !errors.Is(err, ErrBadMessage) {
				t.Errorf("single-form seed %s as %s: error %v, want ErrBadMessage", seed, name, err)
			}
		}
	}
}

// TestReadBodyEnforcesCap pins the size bound every handler applies.
func TestReadBodyEnforcesCap(t *testing.T) {
	small := strings.NewReader(`{"slots": 1}`)
	data, err := ReadBody(small)
	if err != nil || string(data) != `{"slots": 1}` {
		t.Fatalf("small body: %q, %v", data, err)
	}
	huge := strings.NewReader(strings.Repeat("a", MaxMessageBytes+1))
	if _, err := ReadBody(huge); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("oversized body error = %v, want ErrBadMessage", err)
	}
}
