package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestRunServesAndShutsDown boots the daemon on an ephemeral port, drives one
// job through the HTTP API, and exercises the signal-driven shutdown path via
// the test hook.
func TestRunServesAndShutsDown(t *testing.T) {
	ready := make(chan string, 1)
	var shutdown func()
	testHookReady = func(addr string, stop func()) {
		shutdown = stop
		ready <- addr
	}
	defer func() { testHookReady = nil }()

	var out strings.Builder
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, &out)
	}()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errCh:
		t.Fatalf("run exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: got %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"memory":1,"ssets":8,"generations":30,"rounds":10,"seed":4}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: got %d, id %q", resp.StatusCode, st.ID)
	}
	for i := 0; st.State != "done"; i++ {
		if i > 5000 {
			t.Fatalf("job %s never finished (state %s)", st.ID, st.State)
		}
		time.Sleep(2 * time.Millisecond)
		r, err := http.Get(base + "/api/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatalf("decoding status: %v", err)
		}
		r.Body.Close()
	}

	shutdown()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run returned %v after shutdown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never shut down")
	}
	if !strings.Contains(out.String(), "listening on") {
		t.Fatalf("startup banner missing from output %q", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	// Admission prices with the paper calibration alone: the flag that chose
	// a host-measured one is gone.
	if err := run([]string{"-cal", "host"}, &out); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -cal") {
		t.Fatalf("run with -cal: %v, want an unknown-flag error", err)
	}
	if err := run([]string{"-addr", "not-an-address"}, &out); err == nil {
		t.Fatal("run accepted an unparseable listen address")
	}
}

// A stray word is refused before any flag is acted on: the unparseable
// address would be an error of its own, and no daemon starts.
func TestRunRefusesStrayArguments(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-addr", "not-an-address", "stray"}, &out); err == nil || !strings.Contains(err.Error(), `unexpected argument "stray"`) {
		t.Fatalf("run with a stray argument: %v", err)
	}
}
