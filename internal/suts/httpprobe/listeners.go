package httpprobe

import (
	"fmt"
	"net"
	"sync"
)

// Listeners is a web simulator's set of listening ports: one listener
// and one Server per port, so a warm reload retargets a retained port in
// place and dropping a port closes its keep-alive connections too, as a
// cold restart would. The zero value has nothing bound.
type Listeners struct {
	mu    sync.Mutex
	bound map[int]*binding // live listeners by port
	order []int            // bound ports in configuration order
	wg    sync.WaitGroup
}

// binding is one listening port: its listener and the Server on it.
type binding struct {
	ln net.Listener
	ps *Server
}

// Apply drives the set to ports. It binds the ports it lacks through
// listen, in configuration order so a multi-failure reports the same
// port a cold start would; each new Server names itself serverName. A
// bind failure closes the listeners this call created, leaves the set
// as it was and returns bindErr(port, err). On success every port
// serves handler(port) and ports missing from ports are closed. listen,
// handler and bindErr run under the set's lock and must not call back
// into it.
func (l *Listeners) Apply(listen func(addr string) (net.Listener, error), serverName string,
	ports []int, handler func(port int) Handler, bindErr func(port int, err error) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()

	created := map[int]*binding{}
	for _, p := range ports {
		if _, held := l.bound[p]; held {
			continue
		}
		ln, err := listen(fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			for _, b := range created {
				b.close()
			}
			return bindErr(p, err)
		}
		ps := NewServer(serverName, nil)
		created[p] = &binding{ln: ln, ps: ps}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			ps.Serve(ln)
		}()
	}

	// Commit: adopt the new bindings, retarget every retained port's
	// handler, drop ports the new configuration no longer listens on.
	want := map[int]bool{}
	for _, p := range ports {
		want[p] = true
	}
	if l.bound == nil {
		l.bound = map[int]*binding{}
	}
	for p, b := range created {
		l.bound[p] = b
	}
	for p, b := range l.bound {
		if !want[p] {
			b.close()
			delete(l.bound, p)
			continue
		}
		b.ps.SetHandler(handler(p))
	}
	l.order = ports
	return nil
}

// close closes the listener, then hangs up its live connections.
func (b *binding) close() {
	_ = b.ln.Close()
	b.ps.Close()
}

// Close closes every port and waits for their accept loops.
func (l *Listeners) Close() {
	l.mu.Lock()
	bound := l.bound
	l.bound = nil
	l.order = nil
	l.mu.Unlock()
	for _, b := range bound {
		b.close()
	}
	l.wg.Wait()
}

// Len returns the number of bound ports.
func (l *Listeners) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.bound)
}

// Addr returns the address of the first configured port's listener, or
// "" when nothing is bound.
func (l *Listeners) Addr() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.order {
		if b, ok := l.bound[p]; ok {
			return b.ln.Addr().String()
		}
	}
	return ""
}
