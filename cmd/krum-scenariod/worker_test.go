package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"krum/scenario/shardproto"
)

// TestWorkerHeartbeatFollowsRejoinedLease is the regression test for
// the heartbeat cadence surviving a rejoin: a worker granted a 30 s
// lease is told 410 on its first poll (the coordinator restarted),
// rejoins under a 150 ms lease and is handed one long cell. Its
// heartbeats must follow the NEW lease — one naming the cell within a
// second — where a loop that read the lease once, before looping, would
// next wake after 10 s, long after the task's deadline lapsed.
func TestWorkerHeartbeatFollowsRejoinedLease(t *testing.T) {
	long := chaosMatrix().Base
	long.Seed = 1
	long.Rounds *= 2

	var mu sync.Mutex
	joins, polls, given := 0, 0, false
	handedOut := make(chan struct{}) // closed when the cell is given out
	heartbeat := make(chan struct{}, 1)

	reply := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/join", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		joins++
		grant := shardproto.JoinResponse{WorkerID: "w1", Token: "first", LeaseMillis: 30_000}
		if joins > 1 {
			grant = shardproto.JoinResponse{WorkerID: "w2", Token: "second", LeaseMillis: 150}
		}
		mu.Unlock()
		reply(w, grant)
	})
	mux.HandleFunc("POST /fleet/poll", func(w http.ResponseWriter, r *http.Request) {
		body, _ := shardproto.ReadBody(r.Body)
		req, err := shardproto.DecodePollRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		polls++
		first := polls == 1
		give := req.WorkerID == "w2" && !given
		if give {
			given = true
			close(handedOut)
		}
		mu.Unlock()
		switch {
		case first:
			http.Error(w, "unknown worker id (lease expired; rejoin)", http.StatusGone)
		case give:
			reply(w, shardproto.PollResponse{Tasks: []shardproto.Task{{ID: "t1", Spec: long}}})
		default:
			time.Sleep(20 * time.Millisecond) // an idle poll window
			reply(w, shardproto.PollResponse{})
		}
	})
	mux.HandleFunc("POST /fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		body, _ := shardproto.ReadBody(r.Body)
		req, err := shardproto.DecodeHeartbeatRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.WorkerID == "w2" && slices.Contains(req.TaskIDs, "t1") {
			select {
			case heartbeat <- struct{}{}:
			default:
			}
		}
		reply(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /fleet/result", func(w http.ResponseWriter, r *http.Request) {
		reply(w, shardproto.ResultResponse{Accepted: true})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// Two slots, so the worker keeps polling while the cell trains.
	wk := &Worker{Coordinator: ts.URL, Slots: 2, Logf: t.Logf}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- wk.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker: %v", err)
		}
	}()

	// The clock starts when the cell is handed out.
	select {
	case <-handedOut:
	case <-time.After(10 * time.Second):
		t.Fatal("the rejoined worker never polled for the cell")
	}
	select {
	case <-heartbeat:
	case <-time.After(time.Second):
		t.Fatal("no heartbeat naming t1 within 1 s of a 150 ms lease: the loop is still on the old lease's cadence")
	}
}
