package suts

import (
	"net"
	"strconv"
	"strings"
	"testing"
)

// moved is the loopback host the wording tests serve on instead of
// 127.0.0.1.
var moved = LoopbackTransport{Host: "127.0.0.7"}

// sharedPort returns a port free on 127.0.0.1 at the time of the call,
// so the same failure can be staged on both hosts.
func sharedPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return strconv.Itoa(ln.Addr().(*net.TCPAddr).Port)
}

// sameFailure asserts that a failure staged on 127.0.0.7 reads exactly
// as the one on 127.0.0.1 and contains want.
func sameFailure(t *testing.T, onLoopback, onMoved error, want string) {
	t.Helper()
	if onLoopback == nil || onMoved == nil {
		t.Fatalf("errors = %v, %v; want both to fail", onLoopback, onMoved)
	}
	if onMoved.Error() != onLoopback.Error() {
		t.Errorf("on 127.0.0.7: %q\non 127.0.0.1: %q", onMoved, onLoopback)
	}
	if !strings.Contains(onMoved.Error(), want) {
		t.Errorf("error %q does not contain %q", onMoved, want)
	}
}

func TestLoopbackTransportServesOnHost(t *testing.T) {
	ln, err := moved.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	host, port, _ := net.SplitHostPort(ln.Addr().String())
	if host != "127.0.0.7" {
		t.Fatalf("listener on %s, want host 127.0.0.7", ln.Addr())
	}
	go func() {
		if c, err := ln.Accept(); err == nil {
			c.Close()
		}
	}()
	c, err := moved.Dial("127.0.0.1:" + port)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := (LoopbackTransport{}).Dial("127.0.0.1:" + port); err == nil {
		t.Error("the zero transport reached a listener on 127.0.0.7")
	}
}

func TestLoopbackTransportListenCollisionWording(t *testing.T) {
	port := sharedPort(t)
	for _, host := range []string{"127.0.0.1", "127.0.0.7"} {
		ln, err := net.Listen("tcp", host+":"+port)
		if err != nil {
			t.Skipf("port %s not free on %s: %v", port, host, err)
		}
		defer ln.Close()
	}
	_, err1 := LoopbackTransport{}.Listen("127.0.0.1:" + port)
	_, err7 := moved.Listen("127.0.0.1:" + port)
	sameFailure(t, err1, err7, "address already in use")
}

func TestLoopbackTransportRefusedDialWording(t *testing.T) {
	port := sharedPort(t)
	_, err1 := LoopbackTransport{}.Dial("127.0.0.1:" + port)
	_, err7 := moved.Dial("127.0.0.1:" + port)
	sameFailure(t, err1, err7, "connection refused")
}

func TestLoopbackTransportUDPCollisionWording(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	port := strconv.Itoa(pc.LocalAddr().(*net.UDPAddr).Port)
	pc7, err := net.ListenPacket("udp", "127.0.0.7:"+port)
	if err != nil {
		t.Skipf("port %s not free on 127.0.0.7: %v", port, err)
	}
	defer pc7.Close()
	_, err1 := LoopbackTransport{}.ListenPacket("127.0.0.1:" + port)
	_, err7 := moved.ListenPacket("127.0.0.1:" + port)
	sameFailure(t, err1, err7, "address already in use")
}
