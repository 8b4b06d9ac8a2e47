package httpprobe

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"conferr/internal/memnet"
)

// portHandler answers every request with tag and the serving port, so
// a probe shows which Apply's handler a port runs.
func portHandler(tag string) func(int) Handler {
	return func(p int) Handler {
		return func(dst []byte, _, _ []byte) ([]byte, int) {
			return fmt.Appendf(dst, "%s:%d", tag, p), 200
		}
	}
}

// countingClient is a probe client whose dials are counted, so a test
// can tell a warm connection from a fresh one.
func countingClient(n *memnet.Network, dials *int) *Client {
	return NewClient(func(addr string) (net.Conn, error) {
		*dials++
		return n.Dial(addr)
	}, 2*time.Second)
}

func probeBody(t *testing.T, c *Client, p *Probe) string {
	t.Helper()
	status, body, err := c.Do(p)
	if err != nil || status != 200 {
		t.Fatalf("probe %s: status %d err %v", p.Addr, status, err)
	}
	return string(body)
}

var errBind = errors.New("bind refused by test")

func bindErr(int, error) error { return errBind }

// TestListenersDropPortClosesWarmConnection: after Apply({P1,P2}) then
// Apply({P2}), a warm probe of P1 is refused, as after a cold start on
// P2 alone, while P2 keeps its keep-alive connection and serves the new
// handler.
func TestListenersDropPortClosesWarmConnection(t *testing.T) {
	n := memnet.New()
	var ls Listeners
	defer ls.Close()
	if err := ls.Apply(n.Listen, "probe-sim/1.0", []int{81, 82}, portHandler("v1"), bindErr); err != nil {
		t.Fatal(err)
	}
	var dials1, dials2 int
	c1, c2 := countingClient(n, &dials1), countingClient(n, &dials2)
	defer c1.Close()
	defer c2.Close()
	p1, p2 := NewProbe("127.0.0.1:81", "/", ""), NewProbe("127.0.0.1:82", "/", "")
	if got := probeBody(t, c1, p1); got != "v1:81" {
		t.Fatalf("P1 before the drop: %q", got)
	}
	if got := probeBody(t, c2, p2); got != "v1:82" {
		t.Fatalf("P2 before the drop: %q", got)
	}

	if err := ls.Apply(n.Listen, "probe-sim/1.0", []int{82}, portHandler("v2"), bindErr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.Do(p1); err == nil || !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("warm probe of the dropped port: err = %v, want connection refused", err)
	}
	if got := probeBody(t, c2, p2); got != "v2:82" {
		t.Fatalf("P2 after the drop: %q, want the new handler", got)
	}
	if dials2 != 1 {
		t.Fatalf("P2 was dialed %d times, want 1 (its keep-alive connection must survive)", dials2)
	}
	if ls.Len() != 1 || ls.Addr() != "127.0.0.1:82" {
		t.Fatalf("after the drop: Len %d Addr %q, want 1 and 127.0.0.1:82", ls.Len(), ls.Addr())
	}
}

// TestListenersBindFailureRollsBack: an Apply whose second new port is
// occupied returns bindErr's error, closes the listener it had just
// created, and leaves the old ports serving the old handler.
func TestListenersBindFailureRollsBack(t *testing.T) {
	n := memnet.New()
	var ls Listeners
	defer ls.Close()
	if err := ls.Apply(n.Listen, "probe-sim/1.0", []int{81}, portHandler("v1"), bindErr); err != nil {
		t.Fatal(err)
	}
	squatter, err := n.Listen("127.0.0.1:84")
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()

	var gotPort int
	var gotErr error
	err = ls.Apply(n.Listen, "probe-sim/1.0", []int{81, 83, 84}, portHandler("v2"), func(p int, err error) error {
		gotPort, gotErr = p, err
		return errBind
	})
	if err != errBind {
		t.Fatalf("Apply over an occupied port = %v, want bindErr's error", err)
	}
	if gotPort != 84 || gotErr == nil || !strings.Contains(gotErr.Error(), "address already in use") {
		t.Fatalf("bindErr got port %d err %v, want 84 and address already in use", gotPort, gotErr)
	}

	var dials int
	c := countingClient(n, &dials)
	defer c.Close()
	if _, _, err := c.Do(NewProbe("127.0.0.1:83", "/", "")); err == nil || !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("probe of the rolled-back port: err = %v, want connection refused", err)
	}
	if got := probeBody(t, c, NewProbe("127.0.0.1:81", "/", "")); got != "v1:81" {
		t.Fatalf("old port after the failed Apply: %q, want the old handler", got)
	}
	if ls.Len() != 1 || ls.Addr() != "127.0.0.1:81" {
		t.Fatalf("after the failed Apply: Len %d Addr %q, want 1 and 127.0.0.1:81", ls.Len(), ls.Addr())
	}

	ls.Close()
	if ls.Len() != 0 || ls.Addr() != "" {
		t.Fatalf("after Close: Len %d Addr %q, want 0 and empty", ls.Len(), ls.Addr())
	}
}
