package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"ipv4market/internal/scenario"
	"ipv4market/internal/simulation"
)

// smallRegistry builds the implicit one-world registry marketd serves
// without -scenarios, at smallWorld's scale.
func smallRegistry(t *testing.T, dataDir string) *scenario.Registry {
	t.Helper()
	cfg := simulation.DefaultConfig()
	cfg.NumLIRs, cfg.RoutingDays = 14, 40
	reg, err := scenario.New(context.Background(), []scenario.Spec{scenario.Implicit(cfg.Seed)},
		scenario.Options{BaseCfg: cfg, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestRefreshWarmWorlds pins the warm-start refresh policy: a cold-built
// world is left alone, a warm-started one gets one fresh build.
func TestRefreshWarmWorlds(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	cold := smallRegistry(t, dir)
	refreshWarmWorlds(&buf, cold)
	cold.Wait()
	if buf.Len() != 0 || cold.World("default").Snapshot().Gen != 1 {
		t.Errorf("cold-built world was refreshed (gen %d): %s", cold.World("default").Snapshot().Gen, buf.String())
	}

	warm := smallRegistry(t, dir)
	refreshWarmWorlds(&buf, warm)
	warm.Wait()
	if !strings.Contains(buf.String(), "[default] fresh rebuild started") {
		t.Errorf("warm-started world was not refreshed: %q", buf.String())
	}
	if gen := warm.World("default").Snapshot().Gen; gen != 2 {
		t.Errorf("warm-started world serves gen %d after its refresh, want 2", gen)
	}
}

// TestSlowHeaderClientDisconnected holds a connection open with half a
// request header: serveOn must drop it within readHeaderTimeout while a
// normal request still gets 200.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	reg := smallRegistry(t, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveOn(ctx, ln, reg, time.Second) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := io.WriteString(slow, "GET /healthz HTTP/1.1\r\nHost: marketd\r\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/headline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("normal request beside a slow client: status %d", resp.StatusCode)
	}

	slow.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second))
	n, err := slow.Read(make([]byte, 1))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("slow client read = (%d, %v), want the server to close the connection", n, err)
	}
	if elapsed := time.Since(start); elapsed > readHeaderTimeout+2*time.Second {
		t.Errorf("slow client held its connection for %v, header timeout is %v", elapsed, readHeaderTimeout)
	}
}
