package sutpool

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"

	"conferr/internal/suts/nginx"
)

// TestColdCyclesLeaveNoTimeWait runs cold start/probe/stop cycles of the
// nginx simulator on a leased host and counts the TIME_WAIT sockets left
// on its port. The probe client keeps its connection across Stop: the
// server's close leaves it half-closed, the next probe's write draws an
// RST and the retry dials afresh, so no socket lingers. Closing the
// client side gracefully at Stop instead would leave one TIME_WAIT per
// experiment on the server's address.
func TestColdCyclesLeaveNoTimeWait(t *testing.T) {
	srv, err := nginx.New(18090)
	if err != nil {
		t.Fatal(err)
	}
	inst := NewInstance(srv, Cold, nil)
	host, err := inst.LeaseHost()
	if err != nil {
		t.Skipf("no loopback host: %v", err)
	}
	defer inst.Release()
	srv.SetHost(host)
	tests := nginx.Tests(srv)
	files := srv.DefaultConfig()
	const cycles = 500
	for i := range cycles {
		if err := inst.Start(files); err != nil {
			t.Fatalf("cycle %d: start: %v", i, err)
		}
		for _, tc := range tests {
			if err := tc.Run(); err != nil {
				t.Fatalf("cycle %d: %s: %v", i, tc.Name, err)
			}
		}
		if err := inst.Stop(); err != nil {
			t.Fatalf("cycle %d: stop: %v", i, err)
		}
	}
	if n := timeWaits(t, host, srv.DefaultPort()); n >= 50 {
		t.Errorf("%d cold cycles left %d TIME_WAIT sockets on %s:%d, want fewer than 50", cycles, n, host, srv.DefaultPort())
	}
}

// timeWaits counts the sockets /proc/net/tcp lists in TIME_WAIT with
// host:port at either end.
func timeWaits(t *testing.T, host string, port int) int {
	t.Helper()
	f, err := os.Open("/proc/net/tcp")
	if err != nil {
		t.Skipf("no /proc/net/tcp: %v", err)
	}
	defer f.Close()
	ip := net.ParseIP(host).To4()
	// /proc/net/tcp prints an IPv4 address as its 32-bit value in host
	// (little-endian) order, then the port in hex.
	addr := fmt.Sprintf("%02X%02X%02X%02X:%04X", ip[3], ip[2], ip[1], ip[0], port)
	const timeWait = "06"
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 3 && fields[3] == timeWait && (fields[1] == addr || fields[2] == addr) {
			n++
		}
	}
	return n
}
