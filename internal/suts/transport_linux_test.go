package suts

import (
	"net"
	"strings"
	"syscall"
	"testing"
)

// TestLoopbackTransportListensPlainTCP: a kernel-TCP listener is a plain
// TCP socket even where the kernel enables MPTCP, and a bind conflict on
// the moved host still names the logical address.
func TestLoopbackTransportListensPlainTCP(t *testing.T) {
	ln, err := moved.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	raw, err := ln.(*net.TCPListener).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var proto int
	var serr error
	if err := raw.Control(func(fd uintptr) {
		proto, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_PROTOCOL)
	}); err != nil || serr != nil {
		t.Fatal(err, serr)
	}
	if proto != syscall.IPPROTO_TCP {
		t.Errorf("listener protocol = %d, want IPPROTO_TCP (%d)", proto, syscall.IPPROTO_TCP)
	}

	_, port, _ := net.SplitHostPort(ln.Addr().String())
	_, err = moved.Listen("127.0.0.1:" + port)
	if want := "listen tcp 127.0.0.1:" + port + ": bind: address already in use"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("second bind: %v, want %q", err, want)
	}
}
