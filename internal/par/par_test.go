package par

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// settled fails t unless the goroutine count returns to base: ForEach
// joins every call it starts, so nothing of its own may outlive it.
func settled(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestForEachBound(t *testing.T) {
	for _, workers := range []int{3, 0} {
		bound := workers
		if bound <= 0 {
			bound = runtime.GOMAXPROCS(0)
		}
		base := runtime.NumGoroutine()
		var running, peak, calls atomic.Int32
		err := ForEach(context.Background(), 64, workers, func(_ context.Context, i int) error {
			now := running.Add(1)
			defer running.Add(-1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			calls.Add(1)
			time.Sleep(100 * time.Microsecond)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 64 {
			t.Errorf("workers=%d: %d calls, want 64", workers, calls.Load())
		}
		if p := int(peak.Load()); p < 1 || p > bound {
			t.Errorf("workers=%d: peak concurrency %d, want 1..%d", workers, p, bound)
		}
		settled(t, base)
	}
}

func TestForEachCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	err := ForEach(ctx, 8, 2, func(context.Context, int) error { calls.Add(1); return nil })
	if !errors.Is(err, context.Canceled) || calls.Load() != 0 {
		t.Errorf("pre-cancelled: err %v after %d calls, want context.Canceled after none", err, calls.Load())
	}

	// Call 1 cancels mid-flight: call 0, already running, sees its ctx
	// done, and nothing after index 1 starts.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var late atomic.Int32
	err = ForEach(ctx, 16, 2, func(ctx context.Context, i int) error {
		if i > 1 {
			late.Add(1)
		}
		if i == 1 {
			cancel()
		} else {
			<-ctx.Done()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-flight: err %v, want context.Canceled", err)
	}
	if n := late.Load(); n > 0 {
		t.Errorf("%d calls started after cancellation", n)
	}
	settled(t, base)
}

func TestForEachLowestIndexError(t *testing.T) {
	base := runtime.NumGoroutine()
	err5, err9 := errors.New("item 5"), errors.New("item 9")
	// Item 9 fails first; item 3 then returns the cancellation it sees,
	// and item 5 fails last. The lowest real failure still wins.
	err := ForEach(context.Background(), 16, 4, func(ctx context.Context, i int) error {
		switch i {
		case 3:
			<-ctx.Done()
			return ctx.Err()
		case 5:
			time.Sleep(20 * time.Millisecond)
			return err5
		case 9:
			return err9
		}
		return nil
	})
	if err != err5 {
		t.Errorf("err = %v, want %v", err, err5)
	}
	settled(t, base)
}

// TestEngineSpawnsOnlyHere: outside this package, the engine packages
// contain no go statement, so every fan-out they run is bounded by
// ForEach.
func TestEngineSpawnsOnlyHere(t *testing.T) {
	for _, pkg := range []string{"core", "codec", "archive", "selector", "cart", "fascicle", "obs", "server"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files in internal/%s: %v", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement; run the fan-out through par.ForEach", fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
}
