package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// jsonRecord is the serialized form of a Record, shared by the indented
// profile documents (WriteJSON) and the streaming JSONL lines (JSONLSink).
type jsonRecord struct {
	ScenarioID  string `json:"scenario_id"`
	Class       string `json:"class"`
	Description string `json:"description,omitempty"`
	Outcome     string `json:"outcome"`
	Detail      string `json:"detail,omitempty"`
	DurationNS  int64  `json:"duration_ns,omitempty"`
}

// toJSONRecord converts a Record to its serialized form.
func toJSONRecord(r Record) jsonRecord {
	return jsonRecord{
		ScenarioID:  r.ScenarioID,
		Class:       r.Class,
		Description: r.Description,
		Outcome:     r.Outcome.String(),
		Detail:      r.Detail,
		DurationNS:  r.Duration.Nanoseconds(),
	}
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

// jsonProfile is the serialized form of a Profile.
type jsonProfile struct {
	System    string       `json:"system"`
	Generator string       `json:"generator"`
	Records   []jsonRecord `json:"records"`
}

// WriteJSON serializes the profile, one indented JSON document.
func (p *Profile) WriteJSON(w io.Writer) error {
	out := jsonProfile{
		System:    p.System,
		Generator: p.Generator,
		Records:   make([]jsonRecord, 0, len(p.Records)),
	}
	for _, r := range p.Records {
		out.Records = append(out.Records, toJSONRecord(r))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("profile: encoding: %w", err)
	}
	return nil
}

// outcomeFromString resolves an outcome's kebab-case name.
func outcomeFromString(s string) (Outcome, error) {
	if o := outcomeByName([]byte(s)); o != 0 {
		return o, nil
	}
	return 0, fmt.Errorf("profile: unknown outcome %q", s)
}
