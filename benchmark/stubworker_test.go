package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"krum"
	"krum/scenario/shardproto"
	"krum/scenario/store"
)

// A coordinator stand-in that accepts only what the real decoders
// accept and answers in the batched forms. If the wire format drifts,
// this fails here instead of the stub silently serving nothing.
func TestStubWorkerSpeaksBatchedShardproto(t *testing.T) {
	cells := overlapGrid(1, 0, 0).Cells()[:5]
	results := map[cellID]json.RawMessage{}
	for i, c := range cells[:4] { // the fifth cell has no harvested result
		results[idOf(c)] = json.RawMessage(`{"n":` + string(rune('0'+i)) + `}`)
	}

	var mu sync.Mutex
	next := 0
	reported := map[string]shardproto.ResultRequest{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fail := func(w http.ResponseWriter, err error) {
		t.Error(err)
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/join", func(w http.ResponseWriter, r *http.Request) {
		body, _ := shardproto.ReadBody(r.Body)
		req, err := shardproto.DecodeJoinRequest(body)
		if err != nil {
			fail(w, err)
			return
		}
		if req.Version != store.Version || req.Kernel != krum.ActiveKernelOrder() || req.Slots != 2 {
			t.Errorf("join carried %+v", req)
		}
		json.NewEncoder(w).Encode(shardproto.JoinResponse{WorkerID: "w1", Token: "secret", LeaseMillis: 1000})
	})
	mux.HandleFunc("POST /fleet/poll", func(w http.ResponseWriter, r *http.Request) {
		body, _ := shardproto.ReadBody(r.Body)
		req, err := shardproto.DecodePollRequest(body)
		if err != nil {
			fail(w, err)
			return
		}
		if req.WorkerID != "w1" || req.Token != "secret" || req.MaxTasks != 2 {
			t.Errorf("poll carried %+v", req)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(reported) == len(cells) {
			cancel() // everything answered: the idle poll ends the stub
		}
		var resp shardproto.PollResponse
		for ; next < len(cells) && len(resp.Tasks) < req.MaxTasks; next++ {
			resp.Tasks = append(resp.Tasks, shardproto.Task{ID: "t" + string(rune('1'+next)), Spec: cells[next]})
		}
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("POST /fleet/result", func(w http.ResponseWriter, r *http.Request) {
		body, _ := shardproto.ReadBody(r.Body)
		req, err := shardproto.DecodeResultRequest(body)
		if err != nil {
			fail(w, err)
			return
		}
		mu.Lock()
		reported[req.TaskID] = req
		mu.Unlock()
		json.NewEncoder(w).Encode(shardproto.ResultResponse{Accepted: true})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	stub := &stubWorker{coordinator: srv.URL, slots: 2, results: results, client: srv.Client()}
	if err := stub.join(ctx); err != nil {
		t.Fatal(err)
	}
	if err := stub.run(ctx); err != nil {
		t.Fatal(err)
	}
	if stub.served != 5 || stub.unknown != 1 || len(stub.pollMs) != 3 || len(stub.resultMs) != 5 {
		t.Errorf("served %d, unknown %d, %d polls with tasks, %d reports; want 5, 1, 3, 5",
			stub.served, stub.unknown, len(stub.pollMs), len(stub.resultMs))
	}
	for i, c := range cells {
		req := reported["t"+string(rune('1'+i))]
		if want, ok := results[idOf(c)]; ok {
			if string(req.Result) != string(want) || req.Error != "" {
				t.Errorf("task %d reported %s / %q, want the harvested result", i, req.Result, req.Error)
			}
		} else if req.Error == "" {
			t.Errorf("task %d has no harvested result and must be reported as an error", i)
		}
	}
}
