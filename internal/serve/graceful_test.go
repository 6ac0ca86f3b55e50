package serve

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestServeDrainsInFlightRequests is the clean-shutdown regression test for
// the lpmserve daemon path: a signal must stop the accept loop, let the
// in-flight request finish with a full response, and return nil.
func TestServeDrainsInFlightRequests(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	var handled atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release // request is in flight while the signal arrives
		fmt.Fprint(w, "done")
		handled.Add(1)
	})

	stop := make(chan os.Signal, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- ServeUnits(stop, 5*time.Second, &HTTPUnit{Listener: l, Handler: mux}) }()

	reqErr := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + l.Addr().String() + "/slow")
		if err != nil {
			reqErr <- err
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && string(body) != "done" {
			err = fmt.Errorf("body %q, want %q", body, "done")
		}
		reqErr <- err
	}()

	<-started
	stop <- syscall.SIGTERM // shutdown begins while /slow is mid-flight
	// Give Shutdown a beat to close the listener, then release the handler.
	time.Sleep(50 * time.Millisecond)
	close(release)

	if err := <-reqErr; err != nil {
		t.Fatalf("in-flight request not drained: %v", err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("ServeUnits returned %v, want nil on clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeUnits did not return after shutdown")
	}
	if handled.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", handled.Load())
	}
	// The listener must be closed: new connections are refused.
	if _, err := net.DialTimeout("tcp", l.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestServeReportsListenerErrors: a listener that dies surfaces the error
// rather than hanging.
func TestServeReportsListenerErrors(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal)
	errc := make(chan error, 1)
	go func() { errc <- ServeUnits(stop, time.Second, &HTTPUnit{Listener: l, Handler: http.NewServeMux()}) }()
	l.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("ServeUnits returned nil after listener closed underneath it")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeUnits did not notice the dead listener")
	}
}
