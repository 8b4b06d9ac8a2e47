package dist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Checkpoint is the resume sidecar of a distributed campaign
// (<OutPath>.ckpt): the campaign's whole spec, so a resume never splices
// two different runs together. It holds no progress — the merged output
// is its own record of that: its intact prefix of records 0, 1, 2, … is
// the resume front, and a resumed coordinator re-requests every shard
// from there while workers regenerate without re-injecting the prefix.
type Checkpoint struct {
	Spec CampaignSpec `json:"campaign"`
}

// writeCheckpoint persists cp crash-safely: the bytes are fsynced to a
// temp file before the atomic rename, and the directory entry is fsynced
// after it. A coordinator killed mid-write leaves the previous checkpoint
// intact; a host crash right after a successful return cannot lose the
// new one — which is what lets `dist -resume` trust the file.
func writeCheckpoint(path string, cp Checkpoint) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("dist: encoding checkpoint: %w", err)
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("dist: writing checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("dist: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("dist: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dist: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("dist: committing checkpoint: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives a host
// crash. Filesystems that cannot sync directories are tolerated — the
// rename itself is still atomic there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// loadCheckpoint reads a checkpoint; a missing file surfaces as
// os.ErrNotExist for the caller to classify.
func loadCheckpoint(path string) (Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return Checkpoint{}, fmt.Errorf("dist: decoding checkpoint %s: %w", filepath.Base(path), err)
	}
	if cp.Spec.System == "" {
		// An empty spec is also what a checkpoint written before the
		// spec was stored decodes to: refuse it rather than guess.
		return Checkpoint{}, fmt.Errorf("dist: checkpoint %s is malformed", filepath.Base(path))
	}
	return cp, nil
}

// matches rejects resuming one campaign's checkpoint into a different
// campaign — a spec differing in more than resumeKey drops — which would
// splice two unrelated streams. The shard count may differ: every shard
// is a stride of one pure stream, so any layout resumes the same bytes.
func (cp Checkpoint) matches(spec CampaignSpec) error {
	if cp.Spec.resumeKey() != spec.resumeKey() {
		return fmt.Errorf("dist: checkpoint is for campaign %+v, not %+v", cp.Spec, spec)
	}
	return nil
}

// resumeKey is s without the settings a resume may change: Lifecycle and
// Memnet, byte-invisible by contract, and the watchdog deadlines, which
// change no byte until they fire (a campaign that failed on a phase
// timeout resumes with a longer one).
func (s CampaignSpec) resumeKey() CampaignSpec {
	s.Lifecycle, s.Memnet, s.ExperimentTimeout, s.PhaseTimeout = "", false, 0, 0
	return s
}
