package httpprobe

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"conferr/internal/memnet"
)

func echoHandler(dst []byte, path, host []byte) ([]byte, int) {
	dst = append(dst, "path="...)
	dst = append(dst, path...)
	dst = append(dst, " host="...)
	dst = append(dst, host...)
	return dst, 200
}

func startServer(t *testing.T, n *memnet.Network, addr string, h Handler) (*Server, net.Listener) {
	t.Helper()
	ln, err := n.Listen(addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := NewServer("probe-sim/1.0", h)
	go s.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		s.Close()
	})
	return s, ln
}

func TestClientServerRoundTrip(t *testing.T) {
	n := memnet.New()
	startServer(t, n, "127.0.0.1:80", echoHandler)
	c := NewClient(n.Dial, 2*time.Second)
	defer c.Close()

	p := NewProbe("127.0.0.1:80", "/index.html", "blog.example.com")
	for i := 0; i < 3; i++ {
		status, body, err := c.Do(p)
		if err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
		if status != 200 {
			t.Fatalf("Do %d: status %d", i, status)
		}
		if got, want := string(body), "path=/index.html host=blog.example.com"; got != want {
			t.Fatalf("Do %d: body %q, want %q", i, got, want)
		}
	}
}

func TestDefaultHostIsAddr(t *testing.T) {
	n := memnet.New()
	startServer(t, n, "127.0.0.1:80", echoHandler)
	c := NewClient(n.Dial, 2*time.Second)
	defer c.Close()

	_, body, err := c.Do(NewProbe("127.0.0.1:80", "/", ""))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(body), "path=/ host=127.0.0.1:80"; got != want {
		t.Fatalf("body %q, want %q", got, want)
	}
}

func TestRefusedWording(t *testing.T) {
	n := memnet.New()
	c := NewClient(n.Dial, time.Second)
	defer c.Close()

	_, _, err := c.Do(NewProbe("127.0.0.1:81", "/", ""))
	want := `Get "http://127.0.0.1:81/": dial tcp 127.0.0.1:81: connect: connection refused`
	if err == nil || err.Error() != want {
		t.Fatalf("err %v, want %q", err, want)
	}
}

func TestTimeoutWording(t *testing.T) {
	n := memnet.New()
	ln, err := n.Listen("127.0.0.1:80")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Accept and read, but never answer.
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()

	c := NewClient(n.Dial, 30*time.Millisecond)
	defer c.Close()
	p := NewProbe("127.0.0.1:80", "/", "")
	_, _, err = c.Do(p)
	want := `Get "http://127.0.0.1:80/": context deadline exceeded (Client.Timeout exceeded while awaiting headers)`
	if err == nil || err.Error() != want {
		t.Fatalf("err %v, want %q", err, want)
	}
}

// TestStaleConnectionRetry rebinds the listener behind the client's
// warm connection — the single idempotent retry must recover, exactly
// like net/http's reused-connection retry.
func TestStaleConnectionRetry(t *testing.T) {
	n := memnet.New()
	ln, err := n.Listen("127.0.0.1:80")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer("probe-sim/1.0", echoHandler)
	go s.Serve(ln)

	c := NewClient(n.Dial, 2*time.Second)
	defer c.Close()
	p := NewProbe("127.0.0.1:80", "/", "")
	if _, _, err := c.Do(p); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	ln.Close()
	s.Close()
	ln2, err := n.Listen("127.0.0.1:80")
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewServer("probe-sim/1.0", echoHandler)
	go s2.Serve(ln2)
	defer func() {
		ln2.Close()
		s2.Close()
	}()

	status, _, err := c.Do(p)
	if err != nil || status != 200 {
		t.Fatalf("retry after rebind: status %d err %v", status, err)
	}
}

// TestHandlerSwap is the warm-reload shape: SetHandler retargets an
// open keep-alive connection between requests.
func TestHandlerSwap(t *testing.T) {
	n := memnet.New()
	s, _ := startServer(t, n, "127.0.0.1:80", NotFound)
	c := NewClient(n.Dial, 2*time.Second)
	defer c.Close()

	p := NewProbe("127.0.0.1:80", "/x", "")
	status, body, err := c.Do(p)
	if err != nil || status != 404 || string(body) != "404 page not found\n" {
		t.Fatalf("before swap: status %d body %q err %v", status, body, err)
	}
	s.SetHandler(echoHandler)
	status, body, err = c.Do(p)
	if err != nil || status != 200 || !strings.HasPrefix(string(body), "path=/x") {
		t.Fatalf("after swap: status %d body %q err %v", status, body, err)
	}
}

// TestNetHTTPClientInterop drives the fast server with the stock
// net/http client — the reference probe path does exactly this.
func TestNetHTTPClientInterop(t *testing.T) {
	n := memnet.New()
	startServer(t, n, "127.0.0.1:80", echoHandler)

	client := &http.Client{
		Transport: &http.Transport{
			DialContext: func(_ context.Context, _, addr string) (net.Conn, error) {
				return n.Dial(addr)
			},
		},
		Timeout: 2 * time.Second,
	}
	for i := 0; i < 2; i++ {
		resp, err := client.Get("http://127.0.0.1:80/a")
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got, want := string(body), "path=/a host=127.0.0.1:80"; got != want {
			t.Fatalf("body %q, want %q", got, want)
		}
		if got := resp.Header.Get("Server"); got != "probe-sim/1.0" {
			t.Fatalf("Server header %q", got)
		}
	}
}

// TestNetHTTPServerInterop points the fast client at a stock net/http
// server to check the response parser against real-world framing.
func TestNetHTTPServerInterop(t *testing.T) {
	n := memnet.New()
	ln, err := n.Listen("127.0.0.1:80")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "hello %s", r.URL.Path)
	})}
	go srv.Serve(ln)
	defer srv.Close()

	c := NewClient(n.Dial, 2*time.Second)
	defer c.Close()
	status, body, err := c.Do(NewProbe("127.0.0.1:80", "/y", ""))
	if err != nil || status != 200 || string(body) != "hello /y" {
		t.Fatalf("status %d body %q err %v", status, body, err)
	}
}

// TestProbeSteadyStateAllocs is the CI guard for the tentpole's "zero
// allocs steady-state" claim. It covers the whole fast path — client
// round trip, memnet pipes (deadline timer reuse included), and the
// server's request handling, since AllocsPerRun counts every
// goroutine's mallocs.
func TestProbeSteadyStateAllocs(t *testing.T) {
	n := memnet.New()
	startServer(t, n, "127.0.0.1:80", echoHandler)
	c := NewClient(n.Dial, 2*time.Second)
	defer c.Close()
	p := NewProbe("127.0.0.1:80", "/index.html", "blog.example.com")

	// Warm: dial once, grow every reused buffer to steady state.
	for i := 0; i < 8; i++ {
		if _, _, err := c.Do(p); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, _, err := c.Do(p); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state probe allocates: %.2f allocs/op, want 0", avg)
	}
}

// Close hangs up the warm connection, if any.
func (c *Client) Close() { c.closeConn() }
