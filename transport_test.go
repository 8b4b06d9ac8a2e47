package conferr

import (
	"context"
	"testing"
)

const transportTestNginxPort = 23944

// TestInMemoryTransportMatchesTCP pins the in-process transport's
// contract: a campaign over InMemoryTransport produces a profile
// byte-identical to the same campaign over kernel loopback TCP —
// startup rejections, bind collisions and functional-test failures
// word their details exactly alike.
func TestInMemoryTransportMatchesTCP(t *testing.T) {
	gen := func() Generator {
		return TypoGenerator(TypoOptions{Seed: DefaultSeed, PerModel: 30})
	}
	tcp := func() string {
		r := &Runner{Factory: NginxTargetAt, Generator: gen(), Port: transportTestNginxPort}
		p, err := r.Run(context.Background())
		if err != nil {
			t.Fatalf("tcp: %v", err)
		}
		if len(p.Records) == 0 {
			t.Fatal("tcp: empty profile")
		}
		return canonicalProfile(p)
	}()
	for _, workers := range []int{1, 2, 4, 8} {
		r := &Runner{
			Factory: InMemoryTransport(NginxTargetAt), Generator: gen(),
			Port: transportTestNginxPort,
		}
		p, err := r.Run(context.Background(), WithParallelism(workers))
		if err != nil {
			t.Fatalf("memnet workers=%d: %v", workers, err)
		}
		if got := canonicalProfile(p); got != tcp {
			t.Errorf("memnet workers=%d diverged from tcp:\n%s",
				workers, firstDiff(tcp, got))
		}
	}
}

// TestInMemoryTransportWithReload composes the two tentpole pieces:
// warm reloads over the in-process transport still match the cold TCP
// profile, and the workers actually reload.
func TestInMemoryTransportWithReload(t *testing.T) {
	gen := func() Generator {
		return TypoGenerator(TypoOptions{Seed: DefaultSeed, PerModel: 30})
	}
	cold, err := (&Runner{Factory: NginxTargetAt, Generator: gen(), Port: transportTestNginxPort}).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	counters := &LifecycleCounters{}
	warm, err := (&Runner{
		Factory: InMemoryTransport(NginxTargetAt), Generator: gen(),
		Port:      transportTestNginxPort,
		Lifecycle: LifecycleReload, PoolCounters: counters,
	}).Run(context.Background(), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if canonicalProfile(cold) != canonicalProfile(warm) {
		t.Errorf("memnet+reload diverged from cold tcp:\n%s",
			firstDiff(canonicalProfile(cold), canonicalProfile(warm)))
	}
	if snap := counters.Snapshot(); snap.Reloads == 0 {
		t.Errorf("no reloads over memnet (%s)", snap)
	}
}
