package main

import (
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"saad/internal/stream"
	"saad/internal/tracker"
)

// TestConcurrentScrapeAdminAndFeed hammers the three externally-driven
// surfaces at once — /metrics scrapes, /model lifecycle POSTs, and the TCP
// synopsis feed — to prove the control plane and data plane share no
// unsynchronized state. Meaningful under -race.
func TestConcurrentScrapeAdminAndFeed(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	trainModelFile(t, modelPath)

	d, stop := runDaemon(t, detectOptions{
		modelPath:   modelPath,
		httpAddr:    "127.0.0.1:0",
		traceSample: 4,
		storeDir:    filepath.Join(dir, "models"),
	})
	addr, httpAddr := d.srv.Addr(), d.http.Addr()

	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, 4)

	// Data plane: a tracker streaming healthy flows over TCP.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cli, err := stream.Dial(addr, 0)
		if err != nil {
			errs <- err
			return
		}
		tr := tracker.New(1, cli)
		at := epoch
		for i := 0; i < rounds*20; i++ {
			task := tr.Begin(1, at)
			task.Hit(1, at.Add(time.Millisecond))
			task.Hit(2, at.Add(2*time.Millisecond))
			task.End(at.Add(2 * time.Millisecond))
			at = at.Add(time.Millisecond)
		}
		errs <- cli.Close()
	}()

	// Scrape plane: /metrics and the trace surfaces in a tight loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for _, path := range []string{"/metrics", "/statusz", "/trace", "/flight"} {
				resp, err := http.Get("http://" + httpAddr + path)
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- nil
					t.Errorf("%s = %d under load", path, resp.StatusCode)
					return
				}
			}
		}
		errs <- nil
	}()

	// Control plane: /model retrains and promotes racing the feed. Most
	// retrains fail (buffer still warming up) — the point is that the
	// handler, the engine swap path and the feed race cleanly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			action := "retrain"
			if i%4 == 3 {
				action = "promote"
			}
			resp, err := http.PostForm("http://"+httpAddr+"/model", url.Values{"action": {action}})
			if err != nil {
				errs <- err
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errs <- nil
	}()

	// Reader plane: /model GET status alongside the POSTs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			resp, err := http.Get("http://" + httpAddr + "/model")
			if err != nil {
				errs <- err
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !strings.Contains(string(raw), "{") {
				errs <- nil
				t.Errorf("/model GET returned non-JSON: %q", raw)
				return
			}
		}
		errs <- nil
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	stop()
}
