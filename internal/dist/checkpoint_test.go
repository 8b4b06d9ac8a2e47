package dist

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteCheckpointAtomic: a failed checkpoint write — the temp file
// cannot even be created — leaves the previous checkpoint intact, and a
// torn (truncated) checkpoint file refuses to load instead of resuming
// from garbage.
func TestWriteCheckpointAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	good := Checkpoint{Spec: CampaignSpec{System: "nginx", Plugin: "typo", Seed: 7}}
	if err := writeCheckpoint(path, good); err != nil {
		t.Fatal(err)
	}

	// A directory squatting on the temp path makes the next write fail
	// before the rename — the committed checkpoint must survive.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Spec.Seed = 99
	if err := writeCheckpoint(path, bad); err == nil {
		t.Fatal("checkpoint write through a squatting temp path succeeded")
	}
	got, err := loadCheckpoint(path)
	if err != nil {
		t.Fatalf("previous checkpoint unreadable after failed write: %v", err)
	}
	if got != good {
		t.Fatalf("checkpoint after failed write = %+v, want the previous %+v", got, good)
	}
	if err := os.Remove(path + ".tmp"); err != nil {
		t.Fatal(err)
	}

	// A torn file — the crash window writeCheckpoint's fsync+rename is
	// built to close — must be rejected, not half-parsed.
	if err := os.WriteFile(path, []byte(`{"campaign":{"system":"nginx","plugin":"typo","se`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "decoding checkpoint") {
		t.Fatalf("torn checkpoint loaded: err = %v", err)
	}
}

// TestShardRequestProtocolValidation: version gating happens before any
// campaign state is touched, with both versions named.
func TestShardRequestProtocolValidation(t *testing.T) {
	req := ShardRequest{
		Type: TypeRun, Proto: ProtocolVersion,
		Campaign: CampaignSpec{System: "s", Plugin: "p"},
		Shard:    0, Shards: 1,
	}
	if err := req.Validate(); err != nil {
		t.Fatalf("current-version request rejected: %v", err)
	}
	for _, proto := range []int{ProtocolVersion - 1, ProtocolVersion + 1} {
		req.Proto = proto
		err := req.Validate()
		if err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("v%d request accepted: %v", proto, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("v%d", proto)) || !strings.Contains(err.Error(), fmt.Sprintf("v%d", ProtocolVersion)) {
			t.Fatalf("mismatch error does not name both versions: %v", err)
		}
	}
	req.Proto = 0
	if err := req.Validate(); err == nil || !strings.Contains(err.Error(), "no protocol version") {
		t.Fatalf("versionless request accepted: %v", err)
	}
	req.Proto = ProtocolVersion
	req.Campaign.PhaseTimeout = -1
	if err := req.Validate(); err == nil {
		t.Fatal("negative watchdog timeout accepted")
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to loadCheckpoint: it must
// never panic, and any checkpoint it accepts must survive a
// writeCheckpoint/loadCheckpoint round trip unchanged. The shards and
// front fields older sidecars carried are ignored.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add([]byte(`{"campaign":{"system":"nginx","plugin":"typo","seed":7}}` + "\n"))
	f.Add([]byte(`{"campaign":{"system":"nginx","plugin":"typo","seed":12,"rounds":107,"limit":20000,"port":11516,` +
		`"lifecycle":"reload","memnet":true,"no_duration":true,"experiment_timeout":60000000000,"phase_timeout":30000000000}}`))
	f.Add([]byte(`{"campaign":{"system":"nginx","plugin":"typo","se`))
	f.Add([]byte(`{"campaign":{"system":"né😀"},"extra":[1,2]}`))
	f.Add([]byte("{\"campaign\":{\"system\":\"bad\xff\"}}"))
	f.Add([]byte(`{"campaign":{"system":"nginx"},"shards":0,"front":-1}`))
	f.Add([]byte(`{"campaign":{}}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := loadCheckpoint(path)
		if err != nil {
			return
		}
		if err := writeCheckpoint(path, cp); err != nil {
			t.Fatalf("rewriting accepted checkpoint %+v: %v", cp, err)
		}
		back, err := loadCheckpoint(path)
		if err != nil {
			t.Fatalf("rewritten checkpoint %+v does not load: %v", cp, err)
		}
		if back != cp {
			t.Fatalf("checkpoint round trip:\ngot  %+v\nwant %+v", back, cp)
		}
	})
}
