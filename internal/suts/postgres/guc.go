// Package postgres simulates the PostgreSQL 8.2 database server for
// ConfErr campaigns. The simulator is a real TCP server (speaking the
// sqlmini wire protocol) whose configuration handling reproduces the GUC
// behaviours the paper's findings rest on (§5.2):
//
//   - unrecognized parameters abort startup (FATAL), names are
//     case-insensitive, truncated names are not accepted (Table 2);
//   - numeric values are parsed strictly: optional exact-case unit
//     (kB/MB/GB or ms/s/min/h/d) and nothing else may follow the digits;
//   - out-of-range values are errors, never clamped;
//   - cross-directive constraints are enforced: max_fsm_pages must be at
//     least 16 × max_fsm_relations, with an explanatory message;
//   - enumerated parameters validate their values; plain strings are
//     accepted freeform.
package postgres

import (
	"fmt"
	"strconv"
	"strings"
)

// gucKind is the value type of a configuration parameter.
type gucKind int

const (
	kindBool gucKind = iota + 1
	kindInt
	kindReal
	kindString
	kindEnum
)

// gucUnit says which unit family an integer parameter accepts.
type gucUnit int

const (
	unitNone gucUnit = iota + 1
	unitMemory
	unitTime
)

// gucDef describes one configuration parameter.
type gucDef struct {
	name string
	kind gucKind
	unit gucUnit
	// min/max bound integer parameters; violations are fatal.
	min, max int64
	// enum lists allowed values for kindEnum (matched case-insensitively).
	enum []string
	// list permits comma-separated combinations of enum values
	// (e.g. datestyle = 'iso, mdy').
	list bool
	// def is the default raw value (informational).
	def string
}

// memUnits are the PostgreSQL 8.2 memory units, matched case-sensitively
// (guc.c: "kB", "MB", "GB"); values are in kB like the GUC machinery.
var memUnits = []struct {
	suffix string
	factor int64
}{
	{"kB", 1},
	{"MB", 1024},
	{"GB", 1024 * 1024},
}

// timeUnits are the 8.2 time units; values in milliseconds.
var timeUnits = []struct {
	suffix string
	factor int64
}{
	{"ms", 1},
	{"s", 1000},
	{"min", 60 * 1000},
	{"h", 3600 * 1000},
	{"d", 86400 * 1000},
}

// gucs is the parameter registry: the subset of PostgreSQL 8.2 parameters
// the simulator models. Integer memory parameters are expressed in kB,
// time parameters in ms.
var gucs = []gucDef{
	{name: "listen_addresses", kind: kindString, def: "localhost"},
	{name: "port", kind: kindInt, unit: unitNone, min: 1, max: 65535, def: "5432"},
	{name: "max_connections", kind: kindInt, unit: unitNone, min: 1, max: 1 << 23, def: "100"},
	{name: "shared_buffers", kind: kindInt, unit: unitMemory, min: 128, max: 1 << 40, def: "32MB"},
	{name: "temp_buffers", kind: kindInt, unit: unitMemory, min: 100, max: 1 << 40, def: "8MB"},
	{name: "work_mem", kind: kindInt, unit: unitMemory, min: 64, max: 1 << 40, def: "1MB"},
	{name: "maintenance_work_mem", kind: kindInt, unit: unitMemory, min: 1024, max: 1 << 40, def: "16MB"},
	{name: "max_fsm_pages", kind: kindInt, unit: unitNone, min: 1000, max: 1 << 40, def: "153600"},
	{name: "max_fsm_relations", kind: kindInt, unit: unitNone, min: 100, max: 1 << 30, def: "1000"},
	{name: "max_stack_depth", kind: kindInt, unit: unitMemory, min: 100, max: 1 << 30, def: "2MB"},
	{name: "vacuum_cost_delay", kind: kindInt, unit: unitTime, min: 0, max: 1000, def: "0"},
	{name: "bgwriter_delay", kind: kindInt, unit: unitTime, min: 10, max: 10000, def: "200ms"},
	{name: "wal_buffers", kind: kindInt, unit: unitMemory, min: 32, max: 1 << 30, def: "64kB"},
	{name: "checkpoint_segments", kind: kindInt, unit: unitNone, min: 1, max: 1 << 20, def: "3"},
	{name: "checkpoint_timeout", kind: kindInt, unit: unitTime, min: 30000, max: 3600000, def: "5min"},
	{name: "effective_cache_size", kind: kindInt, unit: unitMemory, min: 8, max: 1 << 40, def: "128MB"},
	{name: "random_page_cost", kind: kindReal, def: "4.0"},
	{name: "cpu_tuple_cost", kind: kindReal, def: "0.01"},
	{name: "geqo_selection_bias", kind: kindReal, def: "2.0"},
	{name: "deadlock_timeout", kind: kindInt, unit: unitTime, min: 1, max: 3600000, def: "1s"},
	{name: "statement_timeout", kind: kindInt, unit: unitTime, min: 0, max: 1 << 31, def: "0"},
	{name: "authentication_timeout", kind: kindInt, unit: unitTime, min: 1000, max: 600000, def: "1min"},
	{name: "log_destination", kind: kindEnum, list: true, def: "stderr",
		enum: []string{"stderr", "syslog", "csvlog", "eventlog"}},
	{name: "log_min_messages", kind: kindEnum, def: "notice",
		enum: []string{"debug5", "debug4", "debug3", "debug2", "debug1", "info", "notice", "warning", "error", "log", "fatal", "panic"}},
	{name: "client_min_messages", kind: kindEnum, def: "notice",
		enum: []string{"debug5", "debug4", "debug3", "debug2", "debug1", "log", "notice", "warning", "error"}},
	{name: "wal_sync_method", kind: kindEnum, def: "fsync",
		enum: []string{"fsync", "fdatasync", "open_sync", "open_datasync"}},
	{name: "default_transaction_isolation", kind: kindEnum, def: "read committed",
		enum: []string{"serializable", "repeatable read", "read committed", "read uncommitted"}},
	{name: "datestyle", kind: kindEnum, list: true, def: "iso, mdy",
		enum: []string{"iso", "postgres", "sql", "german", "dmy", "mdy", "ymd", "euro", "us"}},
	{name: "lc_messages", kind: kindEnum, def: "C",
		enum: []string{"C", "POSIX", "en_US.UTF-8"}},
	{name: "search_path", kind: kindString, def: "\"$user\",public"},
	{name: "log_directory", kind: kindString, def: "pg_log"},
	{name: "log_filename", kind: kindString, def: "postgresql-%Y-%m-%d.log"},
	{name: "log_line_prefix", kind: kindString, def: ""},
	{name: "external_pid_file", kind: kindString, def: ""},
	{name: "unix_socket_directory", kind: kindString, def: "/tmp"},
	{name: "dynamic_library_path", kind: kindString, def: "$libdir"},
	{name: "fsync", kind: kindBool, def: "on"},
	{name: "full_page_writes", kind: kindBool, def: "on"},
	{name: "enable_seqscan", kind: kindBool, def: "on"},
	{name: "autovacuum", kind: kindBool, def: "on"},
}

// lookupGUC resolves a parameter name case-insensitively; truncated names
// are not accepted.
func lookupGUC(name string) *gucDef {
	for i := range gucs {
		if strings.EqualFold(gucs[i].name, name) {
			return &gucs[i]
		}
	}
	return nil
}

// parseInt applies 8.2's strict integer parsing: optional sign, digits,
// optional exact unit from the parameter's unit family, nothing else.
func parseInt(raw string, def *gucDef) (int64, error) {
	s := strings.TrimSpace(raw)
	if s == "" {
		return 0, fmt.Errorf("invalid value for parameter \"%s\": \"\"", def.name)
	}
	neg := false
	i := 0
	if s[0] == '-' || s[0] == '+' {
		neg = s[0] == '-'
		i++
	}
	start := i
	var n int64
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		n = n*10 + int64(s[i]-'0')
		i++
	}
	if i == start {
		return 0, fmt.Errorf("invalid value for parameter \"%s\": \"%s\"", def.name, raw)
	}
	if neg {
		n = -n
	}
	rest := strings.TrimSpace(s[i:])
	if rest != "" {
		factor, ok := unitFactor(rest, def.unit)
		if !ok {
			return 0, fmt.Errorf("invalid value for parameter \"%s\": \"%s\"", def.name, raw)
		}
		n *= factor
	}
	if n < def.min || n > def.max {
		return 0, fmt.Errorf("%d is outside the valid range for parameter \"%s\" (%d .. %d)",
			n, def.name, def.min, def.max)
	}
	return n, nil
}

// unitFactor matches a unit suffix case-sensitively within the parameter's
// unit family (guc.c 8.2 behaviour: "32mb" is invalid).
func unitFactor(suffix string, unit gucUnit) (int64, bool) {
	switch unit {
	case unitMemory:
		for _, u := range memUnits {
			if suffix == u.suffix {
				return u.factor, true
			}
		}
	case unitTime:
		for _, u := range timeUnits {
			if suffix == u.suffix {
				return u.factor, true
			}
		}
	}
	return 0, false
}

// parseReal parses a floating-point parameter strictly: the whole value
// must be a number.
func parseReal(raw string, def *gucDef) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
	if err != nil {
		return 0, fmt.Errorf("invalid value for parameter \"%s\": \"%s\"", def.name, raw)
	}
	return f, nil
}

// parseBool accepts what PostgreSQL's parse_bool does (8.3 through 15,
// case-insensitive): prefixes of true/false/yes/no, exact 1/0, and
// prefixes of on/off at least two letters long — so "of" is off, while
// "o" is ambiguous and rejected.
func parseBool(raw string, def *gucDef) (bool, error) {
	v := strings.ToLower(strings.TrimSpace(raw))
	switch {
	case v == "":
	case strings.HasPrefix("true", v), strings.HasPrefix("yes", v), v == "on", v == "1":
		return true, nil
	case strings.HasPrefix("false", v), strings.HasPrefix("no", v), len(v) >= 2 && strings.HasPrefix("off", v), v == "0":
		return false, nil
	}
	return false, fmt.Errorf("parameter \"%s\" requires a Boolean value", def.name)
}

// parseEnum validates an enumerated value, honouring comma-separated lists
// where the parameter allows them.
func parseEnum(raw string, def *gucDef) (string, error) {
	v := strings.TrimSpace(raw)
	parts := []string{v}
	if def.list {
		parts = strings.Split(v, ",")
	}
	for _, p := range parts {
		p = strings.TrimSpace(p)
		ok := false
		for _, a := range def.enum {
			if strings.EqualFold(a, p) {
				ok = true
				break
			}
		}
		if !ok {
			return "", fmt.Errorf("invalid value for parameter \"%s\": \"%s\"", def.name, raw)
		}
	}
	return v, nil
}
