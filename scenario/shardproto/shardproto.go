// Package shardproto defines the coordinator ↔ worker wire protocol
// for sharded scenario execution (see ARCHITECTURE.md's coordinator /
// worker diagram). A krum-scenariod coordinator owns the matrix queue
// and the shared result store; workers join the fleet, long-poll for
// cell tasks, heartbeat while executing, and report stable-JSON
// distsgd.Result payloads back. All messages are JSON over HTTP POST
// bodies.
//
// The decoders are the trust boundary of the fleet: every byte a
// coordinator accepts from a worker (and vice versa) passes through
// DecodeJoinRequest, DecodePollRequest, DecodeHeartbeatRequest,
// DecodeResultRequest, DecodeJoinResponse or DecodePollResponse.
// They are strict — unknown fields, trailing garbage, oversized
// payloads and structurally-invalid values all return ErrBadMessage
// (never panic), which the fuzz target FuzzDecodeMessage pins. Spec
// SEMANTICS are deliberately not validated here: a structurally-valid
// but meaningless cell spec is rejected by the executing worker's
// registry parsers, whose errors travel back in ResultRequest.Error.
//
// Authentication: JoinResponse carries a per-worker Token that every
// subsequent message must echo; a message whose (WorkerID, Token) pair
// does not match a live member is answered HTTP 410, exactly like an
// expired lease, so sequential worker ids alone cannot be used to
// steal tasks or inject results. Reported results must additionally be
// in the stable canonical encoding (decode∘encode identity) or the
// report is rejected and the task requeued.
//
// Liveness protocol: a worker's lease is refreshed by any
// authenticated message it sends (join, poll, heartbeat, result), and
// each ASSIGNED TASK carries its own deadline, refreshed by heartbeats
// naming it. A worker whose lease expires is removed from the fleet
// and its assigned tasks are requeued; a task whose own deadline
// lapses is requeued even if its worker still looks alive (the worker
// lost the assignment, or its report never arrived) — either way no
// cell can hang forever. If a worker later reports a result for a
// reassigned task the coordinator answers Accepted=false, and its next
// poll is answered with HTTP 410 — the signal to rejoin under a fresh
// identity.
//
// Batching is the only wire form: a poll names its free slots in
// PollRequest.MaxTasks (≥ 1) and receives up to that many tasks in
// PollResponse.Tasks; a worker names every cell it is executing in
// HeartbeatRequest.TaskIDs. A one-slot worker speaks the same messages
// with a batch of one, so there is a single encoding to fuzz, and
// coordinator request rate scales with heartbeat intervals rather than
// with total slot count.
package shardproto

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"krum/scenario"
)

// MaxMessageBytes caps every protocol message body. Result payloads
// dominate: a stable-encoded distsgd.Result carries its FinalParams as
// base64 IEEE-754 bits plus per-round history, so the cap is generous;
// anything larger is hostile or corrupt.
const MaxMessageBytes = 16 << 20

// MaxIDBytes caps worker and task identifier lengths — ids are
// coordinator-assigned short strings, so anything longer is hostile.
const MaxIDBytes = 128

// ErrBadMessage is the sentinel wrapped by every decode failure.
var ErrBadMessage = errors.New("shardproto: bad message")

// JoinRequest asks the coordinator for fleet membership.
type JoinRequest struct {
	// Slots is the worker's concurrent cell capacity (informational —
	// each poll states how many tasks it can take in MaxTasks).
	Slots int `json:"slots"`
	// Version is the worker's result-semantics version (the store salt,
	// scenario/store.Version). The coordinator rejects a mismatch with
	// HTTP 409: a worker built before a result-affecting change would
	// otherwise compute old-semantics results that the coordinator
	// persists under new-version keys — a silent, permanent stale-serve
	// that the salt exists to prevent.
	Version string `json:"version"`
	// Kernel is the worker's kernel accumulation-order family
	// (vec.KernelOrder — "pair2" or "fma4"). The coordinator pins it
	// exactly like Version, rejecting a mismatch with HTTP 409: the
	// coordinator's store keys are salted with ITS order family, so a
	// worker computing under a different order would persist results the
	// coordinator's own kernels cannot bit-reproduce. Order-identical
	// tiers (pure-Go and SSE2) carry the same family id and mix freely
	// in one fleet.
	Kernel string `json:"kernel"`
}

// JoinResponse grants membership.
type JoinResponse struct {
	// WorkerID is the coordinator-assigned fleet identity the worker
	// must present in every subsequent message.
	WorkerID string `json:"worker_id"`
	// Token is the membership secret paired with WorkerID; every
	// subsequent message must echo it, so knowing (or guessing) a
	// worker id is not enough to act as that worker.
	Token string `json:"token"`
	// LeaseMillis is the liveness lease: a worker silent for longer is
	// presumed dead and its tasks are requeued. Workers should
	// heartbeat at a fraction of this (a third is customary).
	LeaseMillis int `json:"lease_millis"`
}

// PollRequest asks for work; the coordinator holds the request open
// (long poll) until a task arrives or its poll window elapses.
type PollRequest struct {
	// WorkerID is the identity granted by JoinResponse.
	WorkerID string `json:"worker_id"`
	// Token is the membership secret granted by JoinResponse.
	Token string `json:"token"`
	// MaxTasks is how many tasks the worker can accept from this poll —
	// its currently-free slots, at least 1. Batched polls are what keep
	// coordinator RPS flat as fleets grow: one round trip fills a whole
	// worker instead of one slot.
	MaxTasks int `json:"max_tasks"`
}

// Task is one dispatched cell.
type Task struct {
	// ID names the assignment; the worker echoes it in heartbeats and
	// in its ResultRequest.
	ID string `json:"id"`
	// Spec is the cell to execute via scenario.ComputeCell.
	Spec scenario.Spec `json:"spec"`
}

// PollResponse answers a poll: a batch of tasks, or nothing (the poll
// window elapsed idle — the worker just polls again; the exchange
// doubled as a heartbeat).
type PollResponse struct {
	// Tasks is up to PollRequest.MaxTasks dispatched cells; empty when
	// the poll came up idle.
	Tasks []Task `json:"tasks,omitempty"`
}

// All returns the response's tasks.
func (m PollResponse) All() []Task { return m.Tasks }

// HeartbeatRequest keeps a worker's lease alive while it executes a
// long cell (polling is blocked during execution, so heartbeats are
// the only liveness signal mid-cell).
type HeartbeatRequest struct {
	// WorkerID is the identity granted by JoinResponse.
	WorkerID string `json:"worker_id"`
	// Token is the membership secret granted by JoinResponse.
	Token string `json:"token"`
	// TaskIDs names every task the worker is executing right now; each
	// named task's own deadline is refreshed along with the worker's
	// lease, so a multi-slot worker keeps all of its assignments fresh
	// with ONE request per heartbeat interval instead of one per slot.
	TaskIDs []string `json:"task_ids,omitempty"`
}

// ResultRequest reports a finished task: exactly one of Result and
// Error is set.
type ResultRequest struct {
	// WorkerID is the identity granted by JoinResponse.
	WorkerID string `json:"worker_id"`
	// Token is the membership secret granted by JoinResponse.
	Token string `json:"token"`
	// TaskID is the assignment being answered.
	TaskID string `json:"task_id"`
	// Result is the stable-encoded distsgd.Result (absent on failure).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the cell's failure message (absent on success). Cell
	// failures are deterministic (a bad spec fails identically
	// everywhere), so the coordinator records them instead of retrying.
	Error string `json:"error,omitempty"`
}

// ResultResponse acknowledges a result report.
type ResultResponse struct {
	// Accepted is false when the task is no longer assigned to this
	// worker — its lease expired and the task was reassigned. The
	// worker drops the result; the reassigned execution is
	// byte-identical anyway.
	Accepted bool `json:"accepted"`
}

// ReadBody reads one message body, enforcing MaxMessageBytes. It
// exists so every HTTP handler on both sides of the protocol applies
// the same bound before handing bytes to a decoder.
func ReadBody(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxMessageBytes+1))
	if err != nil {
		return nil, fmt.Errorf("reading message: %w: %w", err, ErrBadMessage)
	}
	if len(data) > MaxMessageBytes {
		return nil, fmt.Errorf("message exceeds %d bytes: %w", MaxMessageBytes, ErrBadMessage)
	}
	return data, nil
}

// decodeStrict unmarshals data into v, rejecting oversized bodies,
// unknown fields and trailing garbage.
func decodeStrict(data []byte, v any) error {
	if len(data) > MaxMessageBytes {
		return fmt.Errorf("message exceeds %d bytes: %w", MaxMessageBytes, ErrBadMessage)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding message: %w: %w", err, ErrBadMessage)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return fmt.Errorf("trailing data after message: %w", ErrBadMessage)
	}
	return nil
}

// checkID validates a required identifier field.
func checkID(field, id string) error {
	if id == "" {
		return fmt.Errorf("empty %s: %w", field, ErrBadMessage)
	}
	if len(id) > MaxIDBytes {
		return fmt.Errorf("%s exceeds %d bytes: %w", field, MaxIDBytes, ErrBadMessage)
	}
	return nil
}

// DecodeJoinRequest decodes and validates a JoinRequest.
func DecodeJoinRequest(data []byte) (JoinRequest, error) {
	var m JoinRequest
	if err := decodeStrict(data, &m); err != nil {
		return JoinRequest{}, err
	}
	if m.Slots < 0 || m.Slots > 1<<16 {
		return JoinRequest{}, fmt.Errorf("slots = %d out of range: %w", m.Slots, ErrBadMessage)
	}
	if err := checkID("version", m.Version); err != nil {
		return JoinRequest{}, err
	}
	if err := checkID("kernel", m.Kernel); err != nil {
		return JoinRequest{}, err
	}
	return m, nil
}

// DecodeJoinResponse decodes and validates a JoinResponse.
func DecodeJoinResponse(data []byte) (JoinResponse, error) {
	var m JoinResponse
	if err := decodeStrict(data, &m); err != nil {
		return JoinResponse{}, err
	}
	if err := checkID("worker_id", m.WorkerID); err != nil {
		return JoinResponse{}, err
	}
	if err := checkID("token", m.Token); err != nil {
		return JoinResponse{}, err
	}
	if m.LeaseMillis <= 0 {
		return JoinResponse{}, fmt.Errorf("lease_millis = %d (need > 0): %w", m.LeaseMillis, ErrBadMessage)
	}
	return m, nil
}

// MaxBatchTasks caps batched message lengths — PollRequest.MaxTasks,
// PollResponse.Tasks and HeartbeatRequest.TaskIDs. It matches the
// slot cap in JoinRequest: no honest worker holds more concurrent
// assignments than it has slots.
const MaxBatchTasks = 1 << 16

// DecodePollRequest decodes and validates a PollRequest.
func DecodePollRequest(data []byte) (PollRequest, error) {
	var m PollRequest
	if err := decodeStrict(data, &m); err != nil {
		return PollRequest{}, err
	}
	if err := checkID("worker_id", m.WorkerID); err != nil {
		return PollRequest{}, err
	}
	if err := checkID("token", m.Token); err != nil {
		return PollRequest{}, err
	}
	if m.MaxTasks < 1 || m.MaxTasks > MaxBatchTasks {
		return PollRequest{}, fmt.Errorf("max_tasks = %d out of range: %w", m.MaxTasks, ErrBadMessage)
	}
	return m, nil
}

// DecodePollResponse decodes and validates a PollResponse.
func DecodePollResponse(data []byte) (PollResponse, error) {
	var m PollResponse
	if err := decodeStrict(data, &m); err != nil {
		return PollResponse{}, err
	}
	if len(m.Tasks) > MaxBatchTasks {
		return PollResponse{}, fmt.Errorf("tasks has %d entries (max %d): %w", len(m.Tasks), MaxBatchTasks, ErrBadMessage)
	}
	for _, task := range m.Tasks {
		if err := checkID("task id", task.ID); err != nil {
			return PollResponse{}, err
		}
	}
	return m, nil
}

// DecodeHeartbeatRequest decodes and validates a HeartbeatRequest.
func DecodeHeartbeatRequest(data []byte) (HeartbeatRequest, error) {
	var m HeartbeatRequest
	if err := decodeStrict(data, &m); err != nil {
		return HeartbeatRequest{}, err
	}
	if err := checkID("worker_id", m.WorkerID); err != nil {
		return HeartbeatRequest{}, err
	}
	if err := checkID("token", m.Token); err != nil {
		return HeartbeatRequest{}, err
	}
	if len(m.TaskIDs) > MaxBatchTasks {
		return HeartbeatRequest{}, fmt.Errorf("task_ids has %d entries (max %d): %w", len(m.TaskIDs), MaxBatchTasks, ErrBadMessage)
	}
	for _, id := range m.TaskIDs {
		if err := checkID("task_ids entry", id); err != nil {
			return HeartbeatRequest{}, err
		}
	}
	return m, nil
}

// DecodeResultRequest decodes and validates a ResultRequest, enforcing
// the exactly-one-of-result-and-error invariant.
func DecodeResultRequest(data []byte) (ResultRequest, error) {
	var m ResultRequest
	if err := decodeStrict(data, &m); err != nil {
		return ResultRequest{}, err
	}
	if err := checkID("worker_id", m.WorkerID); err != nil {
		return ResultRequest{}, err
	}
	if err := checkID("token", m.Token); err != nil {
		return ResultRequest{}, err
	}
	if err := checkID("task_id", m.TaskID); err != nil {
		return ResultRequest{}, err
	}
	result := bytes.TrimSpace(m.Result)
	hasResult := len(result) > 0 && !bytes.Equal(result, []byte("null"))
	hasError := m.Error != ""
	if hasResult == hasError {
		return ResultRequest{}, fmt.Errorf("want exactly one of result and error: %w", ErrBadMessage)
	}
	return m, nil
}
