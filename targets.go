package conferr

import (
	"fmt"

	"conferr/internal/core"
	"conferr/internal/dnsmodel"
	"conferr/internal/formats"
	"conferr/internal/formats/apacheconf"
	"conferr/internal/formats/ini"
	"conferr/internal/formats/kv"
	"conferr/internal/formats/nginxconf"
	"conferr/internal/formats/tinydns"
	"conferr/internal/formats/zonefile"
	"conferr/internal/suts"
	"conferr/internal/suts/bind"
	"conferr/internal/suts/djbdns"
	"conferr/internal/suts/httpd"
	"conferr/internal/suts/mysqld"
	"conferr/internal/suts/nginx"
	"conferr/internal/suts/postgres"
	"conferr/internal/suts/redisd"
	"conferr/internal/view"
)

// SystemTarget is a ready-made target: the engine Target plus the concrete
// simulator, for callers that need SUT-specific hooks.
type SystemTarget struct {
	// Target is what a Campaign consumes.
	Target *core.Target
	// System is the simulator behind the target.
	System suts.System
}

// TargetFactory constructs an independent SystemTarget listening on the
// given port (0 allocates a free one). Factories are the unit the parallel
// Runner scales over — each campaign worker calls the factory once to get
// its own SUT instance — and the value stored in the target registry (see
// RegisterTarget / LookupTarget).
type TargetFactory func(port int) (*SystemTarget, error)

// MySQLTargetAt returns a campaign target for the simulated MySQL server
// with its paper-style functional tests (create/populate/query a
// database) on a fixed port (0 allocates one). The experiment harness uses
// fixed ports so that faultloads — which include typos in the port digits
// — are reproducible across runs.
func MySQLTargetAt(port int) (*SystemTarget, error) {
	s, err := mysqld.New(port)
	if err != nil {
		return nil, fmt.Errorf("conferr: mysql target: %w", err)
	}
	return &SystemTarget{
		System: s,
		Target: &core.Target{
			System:  s,
			Formats: map[string]formats.Format{mysqld.ConfigFile: ini.Format{}},
			Tests:   mysqld.Tests(s),
		},
	}, nil
}

// PostgresTargetAt returns a campaign target for the simulated PostgreSQL
// server on a fixed port (0 allocates one).
func PostgresTargetAt(port int) (*SystemTarget, error) {
	s, err := postgres.New(port)
	if err != nil {
		return nil, fmt.Errorf("conferr: postgres target: %w", err)
	}
	return &SystemTarget{
		System: s,
		Target: &core.Target{
			System:  s,
			Formats: map[string]formats.Format{postgres.ConfigFile: kv.Format{}},
			Tests:   postgres.Tests(s),
		},
	}, nil
}

// postgresFullSystem wraps the Postgres simulator so that its default
// configuration is the §5.5 full parameter listing instead of the stock
// 8-directive file.
type postgresFullSystem struct {
	*postgres.Server
}

// DefaultConfig implements suts.System.
func (s postgresFullSystem) DefaultConfig() suts.Files { return s.FullConfig() }

// PostgresFullTargetAt is PostgresTargetAt with the full §5.5
// configuration (every modeled parameter with its default, booleans
// excluded) as the campaign's initial configuration — the Figure 3
// faultload.
func PostgresFullTargetAt(port int) (*SystemTarget, error) {
	s, err := postgres.New(port)
	if err != nil {
		return nil, fmt.Errorf("conferr: postgres full target: %w", err)
	}
	sys := postgresFullSystem{Server: s}
	return &SystemTarget{
		System: sys,
		Target: &core.Target{
			System:  sys,
			Formats: map[string]formats.Format{postgres.ConfigFile: kv.Format{}},
			Tests:   postgres.Tests(s),
		},
	}, nil
}

// mysqlFullSystem mirrors postgresFullSystem for MySQL.
type mysqlFullSystem struct {
	*mysqld.Server
}

// DefaultConfig implements suts.System.
func (s mysqlFullSystem) DefaultConfig() suts.Files { return s.FullConfig() }

// MySQLFullTargetAt is MySQLTargetAt with a configuration listing every
// modeled server variable with its default — the Figure 3 faultload.
func MySQLFullTargetAt(port int) (*SystemTarget, error) {
	s, err := mysqld.New(port)
	if err != nil {
		return nil, fmt.Errorf("conferr: mysql full target: %w", err)
	}
	sys := mysqlFullSystem{Server: s}
	return &SystemTarget{
		System: sys,
		Target: &core.Target{
			System:  sys,
			Formats: map[string]formats.Format{mysqld.ConfigFile: ini.Format{}},
			Tests:   mysqld.Tests(s),
		},
	}, nil
}

// MySQLStrictTargetAt is MySQLTargetAt with the simulator's strict mode
// enabled: the silent acceptances the paper flags as flaws (clamping,
// multiplier trailing junk, valueless directives) become startup errors.
// Comparing a campaign's profile against the default target's quantifies
// the resilience improvement those simple checks buy — the paper's
// development-feedback use case (§1).
func MySQLStrictTargetAt(port int) (*SystemTarget, error) {
	tgt, err := MySQLTargetAt(port)
	if err != nil {
		return nil, err
	}
	tgt.System.(*mysqld.Server).Strict = true
	return tgt, nil
}

// mysqlSharedSystem serves the shared my.cnf (server plus auxiliary tool
// groups) as the default configuration.
type mysqlSharedSystem struct {
	*mysqld.Server
}

// DefaultConfig implements suts.System.
func (s mysqlSharedSystem) DefaultConfig() suts.Files { return s.SharedConfig() }

// MySQLSharedFactory returns a TargetFactory for the MySQL target whose
// configuration is the shared my.cnf (server group plus [mysqldump] and
// [myisamchk] groups). When withToolChecks is true, the functional tests
// also run the auxiliary tools — which is when errors in their groups
// finally surface. Comparing campaigns with and without the tool checks
// quantifies the §5.2 latent-error design flaw: the difference is exactly
// the faults an administrator would not learn about until a nightly cron
// job fails.
func MySQLSharedFactory(withToolChecks bool) TargetFactory {
	return func(port int) (*SystemTarget, error) {
		s, err := mysqld.New(port)
		if err != nil {
			return nil, fmt.Errorf("conferr: mysql shared target: %w", err)
		}
		sys := mysqlSharedSystem{Server: s}
		tests := mysqld.Tests(s)
		if withToolChecks {
			for _, group := range []string{"mysqldump", "myisamchk"} {
				tests = append(tests, Test{
					Name: "tool-run/" + group,
					Run:  func() error { return s.CheckTool(group) },
				})
			}
		}
		return &SystemTarget{
			System: sys,
			Target: &core.Target{
				System:  sys,
				Formats: map[string]formats.Format{mysqld.ConfigFile: ini.Format{}},
				Tests:   tests,
			},
		}, nil
	}
}

// ApacheTargetAt returns a campaign target for the simulated Apache httpd
// with the paper's HTTP GET functional test on a fixed port (0 allocates
// one).
func ApacheTargetAt(port int) (*SystemTarget, error) {
	s, err := httpd.New(port)
	if err != nil {
		return nil, fmt.Errorf("conferr: apache target: %w", err)
	}
	return &SystemTarget{
		System: s,
		Target: &core.Target{
			System:  s,
			Formats: map[string]formats.Format{httpd.ConfigFile: apacheconf.Format{}},
			Tests:   httpd.Tests(s),
		},
	}, nil
}

// NginxTargetAt returns a campaign target for the simulated nginx web
// server on a fixed port (0 allocates one). Its nested-brace nginx.conf
// rides the nginxconf format — the matrix's first arbitrarily nested
// codec — and its functional tests exercise default-server, virtual-host
// and location routing.
func NginxTargetAt(port int) (*SystemTarget, error) {
	s, err := nginx.New(port)
	if err != nil {
		return nil, fmt.Errorf("conferr: nginx target: %w", err)
	}
	return &SystemTarget{
		System: s,
		Target: &core.Target{
			System:  s,
			Formats: map[string]formats.Format{nginx.ConfigFile: nginxconf.Format{}},
			Tests:   nginx.Tests(s),
		},
	}, nil
}

// RedisdTargetAt returns a campaign target for the simulated Redis
// server on a fixed port (0 allocates one). redis.conf is a flat
// space-separated file, so the target reuses the existing kv codec
// unchanged — adding the system costs only the SUT adapter, the paper's
// §3.2 portability claim.
func RedisdTargetAt(port int) (*SystemTarget, error) {
	s, err := redisd.New(port)
	if err != nil {
		return nil, fmt.Errorf("conferr: redisd target: %w", err)
	}
	return &SystemTarget{
		System: s,
		Target: &core.Target{
			System:  s,
			Formats: map[string]formats.Format{redisd.ConfigFile: kv.Format{}},
			Tests:   redisd.Tests(s),
		},
	}, nil
}

// BINDTargetAt returns a campaign target for the simulated BIND name
// server with the paper's zone-liveness functional tests, on a fixed port
// (0 allocates one).
func BINDTargetAt(port int) (*SystemTarget, error) {
	s, err := bind.New(port)
	if err != nil {
		return nil, fmt.Errorf("conferr: bind target: %w", err)
	}
	return &SystemTarget{
		System: s,
		Target: &core.Target{
			System: s,
			Formats: map[string]formats.Format{
				bind.ConfigFile:      formats.Raw{},
				bind.ForwardZoneFile: zonefile.Format{},
				bind.ReverseZoneFile: zonefile.Format{},
			},
			Tests: bind.Tests(s),
		},
	}, nil
}

// BINDRecordView returns the record view matching BIND targets' zones, for
// use with SemanticDNSGenerator.
func BINDRecordView() view.View {
	return dnsmodel.ZoneRecordView{Origins: bind.Origins()}
}

// DjbdnsTargetAt returns a campaign target for the simulated djbdns
// (tinydns) server on a fixed port (0 allocates one).
func DjbdnsTargetAt(port int) (*SystemTarget, error) {
	s, err := djbdns.New(port)
	if err != nil {
		return nil, fmt.Errorf("conferr: djbdns target: %w", err)
	}
	return &SystemTarget{
		System: s,
		Target: &core.Target{
			System:  s,
			Formats: map[string]formats.Format{djbdns.DataFile: tinydns.Format{}},
			Tests:   djbdns.Tests(s),
		},
	}, nil
}

// DjbdnsRecordView returns the record view matching djbdns targets' data
// file, for use with SemanticDNSGenerator.
func DjbdnsRecordView() view.View {
	return dnsmodel.TinyRecordView{File: djbdns.DataFile}
}
