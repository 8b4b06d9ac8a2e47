// Package dnscheck provides the functional test the paper uses for name
// servers: "the script checks that the server is answering to requests
// both for the forward and the reverse zone" (§5.1). The check asks for
// each zone's SOA and requires an authoritative positive answer — it
// verifies zone liveness, not individual records, which is why record-
// level semantic faults (a missing PTR, say) pass the functional tests and
// are classified "not found" in Table 3.
package dnscheck

import (
	"fmt"
	"time"

	"conferr/internal/dnswire"
	"conferr/internal/suts"
)

// queryTimeout bounds each functional-test query.
const queryTimeout = 2 * time.Second

// ZoneLivenessTests returns one functional test per zone, each verifying
// that the server at addr answers the zone's SOA query authoritatively.
// The tests query through lo as it stands when they run.
func ZoneLivenessTests(lo *suts.LoopbackTransport, addr string, zones []string) []suts.Test {
	tests := make([]suts.Test, 0, len(zones))
	for _, zone := range zones {
		zone := zone
		tests = append(tests, suts.Test{
			Name: "zone-liveness/" + zone,
			Run: func() error {
				resp, err := dnswire.Query(lo.DialPacket, addr, zone, dnswire.TypeSOA, queryTimeout)
				if err != nil {
					return fmt.Errorf("query SOA %s: %w", zone, err)
				}
				if resp.RCode != dnswire.RCodeNoError {
					return fmt.Errorf("SOA %s: rcode %d", zone, resp.RCode)
				}
				for _, rr := range resp.Answers {
					if rr.Type == dnswire.TypeSOA {
						return nil
					}
				}
				return fmt.Errorf("SOA %s: no SOA in answer", zone)
			},
		})
	}
	return tests
}
