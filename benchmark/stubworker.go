package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"krum"
	"krum/scenario/shardproto"
	"krum/scenario/store"
)

// stubWorker is a fleet worker that computes nothing: it speaks the
// batched shardproto forms — join with the store version and kernel
// order family, poll with max_tasks = slots, one result report per
// task — and answers each task from results harvested earlier. With
// compute at zero, a coordinator fed by it shows what dispatch itself
// costs.
type stubWorker struct {
	coordinator string
	slots       int
	results     map[cellID]json.RawMessage
	client      *http.Client

	id, token string
	// pollMs holds the round trip of each poll that returned tasks;
	// resultMs that of each result report.
	pollMs, resultMs []float64
	// served counts tasks answered; unknown counts tasks no harvested
	// result matched (reported as cell errors).
	served, unknown int
}

// post sends one protocol message and returns the reply body.
func (w *stubWorker) post(ctx context.Context, path string, msg any) ([]byte, error) {
	blob, err := json.Marshal(msg)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.coordinator+path, bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// join asks for fleet membership.
func (w *stubWorker) join(ctx context.Context) error {
	body, err := w.post(ctx, "/fleet/join", shardproto.JoinRequest{
		Slots:   w.slots,
		Version: store.Version,
		Kernel:  krum.ActiveKernelOrder(),
	})
	if err != nil {
		return err
	}
	grant, err := shardproto.DecodeJoinResponse(body)
	if err != nil {
		return err
	}
	w.id, w.token = grant.WorkerID, grant.Token
	return nil
}

// run polls and answers until ctx is cancelled, which is its normal
// end; any other failure is returned.
func (w *stubWorker) run(ctx context.Context) error {
	for ctx.Err() == nil {
		t := time.Now()
		body, err := w.post(ctx, "/fleet/poll", shardproto.PollRequest{WorkerID: w.id, Token: w.token, MaxTasks: w.slots})
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return nil
			}
			return err
		}
		poll, err := shardproto.DecodePollResponse(body)
		if err != nil {
			return err
		}
		tasks := poll.All()
		if len(tasks) > 0 {
			w.pollMs = append(w.pollMs, ms(time.Since(t)))
		}
		for _, task := range tasks {
			report := shardproto.ResultRequest{WorkerID: w.id, Token: w.token, TaskID: task.ID}
			if result, ok := w.results[idOf(task.Spec)]; ok {
				report.Result = result
			} else {
				report.Error = "stub worker: no harvested result for " + task.Spec.Label()
				w.unknown++
			}
			t := time.Now()
			body, err := w.post(ctx, "/fleet/result", report)
			if err != nil {
				if errors.Is(err, context.Canceled) {
					return nil
				}
				return err
			}
			w.resultMs = append(w.resultMs, ms(time.Since(t)))
			var ack shardproto.ResultResponse
			if err := json.Unmarshal(body, &ack); err != nil || !ack.Accepted {
				return fmt.Errorf("result for %s not accepted: %s", task.ID, bytes.TrimSpace(body))
			}
			w.served++
		}
	}
	return nil
}

// probeShardproto times the batched wire forms on real tasks and real
// result bytes: what the coordinator pays to encode a poll reply and
// decode a result report, and the worker to decode the poll reply.
func probeShardproto(cells []servedCell, out map[string]float64) {
	const rounds = 5
	var poll shardproto.PollResponse
	for i, c := range cells[:min(workers, len(cells))] {
		poll.Tasks = append(poll.Tasks, shardproto.Task{ID: fmt.Sprintf("t%d", i+1), Spec: c.spec})
	}
	var pollBlob []byte
	t := time.Now()
	for range rounds * len(cells) {
		pollBlob, _ = json.Marshal(poll) // plain structs: cannot fail
	}
	out["shardproto.encode_poll_us"] = us(time.Since(t)) / float64(rounds*len(cells))
	t = time.Now()
	for range rounds * len(cells) {
		if _, err := shardproto.DecodePollResponse(pollBlob); err != nil {
			return
		}
	}
	out["shardproto.decode_poll_us"] = us(time.Since(t)) / float64(rounds*len(cells))

	reports := make([][]byte, len(cells))
	size := 0
	for i, c := range cells {
		reports[i], _ = json.Marshal(shardproto.ResultRequest{WorkerID: "w1", Token: "0123456789abcdef", TaskID: "t1", Result: c.result})
		size += len(reports[i])
	}
	t = time.Now()
	for range rounds {
		for _, blob := range reports {
			if _, err := shardproto.DecodeResultRequest(blob); err != nil {
				return
			}
		}
	}
	out["shardproto.decode_result_us"] = us(time.Since(t)) / float64(rounds*len(cells))
	out["shardproto.result_msg_bytes"] = float64(size) / float64(len(cells))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
