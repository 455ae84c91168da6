package server

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/datagen"
)

// TestStressConcurrentTraffic hammers one server with interleaved
// /compress and /query requests. The handlers share the obs registry,
// the overload limiter, and the parallel pipeline underneath; this test
// exists to fail under -race if any of those shared structures regress,
// and to hang if a worker goroutine leaks or misses its Done.
// obs.TestRegistryUsableAfterPanics covers the registry's lock release
// on a panic. Runs in CI's race job; skipped under -short.
func TestStressConcurrentTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test: meaningful only under -race in the full run")
	}

	srv := testServer(t)
	tb := datagen.CDR(900, 7)
	raw := tableBody(t, tb).Bytes()

	// One compressed archive up front so query workers start immediately
	// instead of serializing behind their own compress round. With no
	// concurrent traffic yet the limiter must not shed this one.
	compressed := compressOnce(t, srv.URL, raw)
	if len(compressed) == 0 {
		t.Fatal("initial compress was shed by the limiter with no concurrent load")
	}

	const workers = 6
	const reqsPerWorker = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reqsPerWorker; i++ {
				if w%2 == 0 {
					blob := compressOnce(t, srv.URL, raw)
					if len(blob) == 0 {
						return
					}
				} else {
					resp, err := http.Post(
						srv.URL+"/query?agg=avg&col=charge_cents&groupby=plan&where=duration_sec%20%3E%20100",
						"application/x-spartan", bytes.NewReader(compressed))
					if err != nil {
						t.Errorf("query: %v", err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					// 429 is the overload limiter shedding load as
					// designed; anything else non-200 is a bug.
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
						t.Errorf("query status = %d: %s", resp.StatusCode, body)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// compressOnce posts one table and returns the archive, tolerating the
// overload limiter's 429 (returns nil) but failing on anything else.
func compressOnce(t *testing.T, baseURL string, raw []byte) []byte {
	t.Helper()
	resp, err := http.Post(baseURL+"/compress?tolerance=0.01", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Errorf("compress: %v", err)
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("compress read: %v", err)
		return nil
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("compress status = %d: %s", resp.StatusCode, body)
		return nil
	}
	return body
}
