package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"

	"krum/scenario/store"
)

// TestRunCoordinatorAnnouncesBoundAddress pins that the "listening"
// line names the address actually held: started on 127.0.0.1:0, the
// coordinator prints the kernel-picked port, and that port answers.
func TestRunCoordinatorAnnouncesBoundAddress(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- runCoordinator(ctx, pw, &stderr, "127.0.0.1:0", Options{Workers: 1, Store: store.NewMemory()}, "")
		pw.Close()
	}()

	const prefix = "krum-scenariod listening on "
	var addr string
	lines := bufio.NewScanner(pr)
	for addr == "" && lines.Scan() {
		addr, _ = strings.CutPrefix(lines.Text(), prefix)
	}
	go io.Copy(io.Discard, pr) // keep the shutdown lines from blocking
	_, port, err := net.SplitHostPort(addr)
	if err != nil || port == "0" {
		t.Fatalf("announced address %q is not a bound host:port (err %v)", addr, err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("announced address %s does not answer: %v", addr, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz on %s: status %d", addr, resp.StatusCode)
	}

	cancel()
	if code := <-exit; code != 0 {
		t.Errorf("exit code %d after interrupt, want 0 (stderr %q)", code, stderr.String())
	}
}

// TestRunCoordinatorTakenPort pins that a bind failure is exit 1 with
// no "listening" line before it.
func TestRunCoordinatorTakenPort(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var stdout, stderr bytes.Buffer
	code := runCoordinator(context.Background(), &stdout, &stderr, ln.Addr().String(), Options{Workers: 1, Store: store.NewMemory()}, "")
	if code != 1 {
		t.Errorf("exit code %d on a taken port, want 1", code)
	}
	if strings.Contains(stdout.String(), "listening") {
		t.Errorf("announced a port it does not hold: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "listen") {
		t.Errorf("stderr %q does not report the bind failure", stderr.String())
	}
}

// TestRunUnknownStoreFlag pins that the single-file -store flag is
// gone: the flag package refuses it with exit 2, and -h lists only
// -store-dir.
func TestRunUnknownStoreFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-store", "x"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code %d for -store, want 2", code)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -store") {
		t.Errorf("stderr %q lacks the flag package's unknown-flag message", stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("exit code %d for -h, want 0", code)
	}
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "-store") && !strings.Contains(line, "-store-dir") {
			t.Errorf("usage still lists a -store flag: %q", line)
		}
	}
}

// TestRunWorkerRefusesCoordinatorFlags pins that a worker refuses the
// flags that configure state it does not keep — exit 2 with a message
// naming the flag, before anything is opened or joined.
func TestRunWorkerRefusesCoordinatorFlags(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		flag, value, want string
	}{
		{"-journal", dir + "/j", "-journal is a coordinator flag (workers keep no matrix state)"},
		{"-store-dir", dir + "/cells", "-store-dir is a coordinator flag (workers keep no results)"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-worker", "-join", "http://127.0.0.1:1", tc.flag, tc.value}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("-worker %s: exit code %d, want 2", tc.flag, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("-worker %s: stderr %q lacks %q", tc.flag, stderr.String(), tc.want)
		}
		if _, err := os.Stat(tc.value); err == nil {
			t.Errorf("-worker %s created %s before refusing", tc.flag, tc.value)
		}
	}
}
