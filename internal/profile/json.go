package profile

import (
	"fmt"
	"time"
)

// jsonRecord is the serialized form of a Record: the record fields of a
// JSONL profile line, the schema encoding/json decodes when
// ParseJSONLLine's fast path declines a line.
type jsonRecord struct {
	ScenarioID  string `json:"scenario_id"`
	Class       string `json:"class"`
	Description string `json:"description,omitempty"`
	Outcome     string `json:"outcome"`
	Detail      string `json:"detail,omitempty"`
	DurationNS  int64  `json:"duration_ns,omitempty"`
}

// record converts the serialized form back, resolving the outcome name.
func (jr jsonRecord) record() (Record, error) {
	outcome, err := outcomeFromString(jr.Outcome)
	if err != nil {
		return Record{}, err
	}
	return Record{
		ScenarioID:  jr.ScenarioID,
		Class:       jr.Class,
		Description: jr.Description,
		Outcome:     outcome,
		Detail:      jr.Detail,
		Duration:    time.Duration(jr.DurationNS),
	}, nil
}

// outcomeFromString resolves an outcome's kebab-case name.
func outcomeFromString(s string) (Outcome, error) {
	if o := outcomeByName([]byte(s)); o != 0 {
		return o, nil
	}
	return 0, fmt.Errorf("profile: unknown outcome %q", s)
}
