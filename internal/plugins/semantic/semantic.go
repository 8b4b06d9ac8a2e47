// Package semantic implements ConfErr's domain-specific semantic error
// generator for DNS servers (paper §2.3, §4.3, §5.4): RFC-1912 record
// misconfigurations defined over the system-independent record view, so
// the same fault classes apply unchanged to BIND and djbdns.
package semantic

import (
	"fmt"
	"strings"

	"conferr/internal/confnode"
	"conferr/internal/dnsmodel"
	"conferr/internal/scenario"
	"conferr/internal/template"
	"conferr/internal/view"
)

// Fault classes (the numbered errors of the paper's Table 3, plus
// extensions).
const (
	// ClassMissingPTR deletes a PTR record — RFC 1912 §2.1, Table 3 (1).
	ClassMissingPTR = "semantic/missing-ptr"
	// ClassPTRToCNAME retargets a PTR at an alias — Table 3 (2).
	ClassPTRToCNAME = "semantic/ptr-to-cname"
	// ClassCNAMEDupNS adds a CNAME whose owner also has NS records —
	// RFC 1912 §2.4, Table 3 (3).
	ClassCNAMEDupNS = "semantic/cname-dup-ns"
	// ClassMXToCNAME retargets an MX exchange at an alias — RFC 1912
	// §2.4, Table 3 (4).
	ClassMXToCNAME = "semantic/mx-to-cname"
	// ClassCNAMEChain retargets a CNAME at another alias (extension).
	ClassCNAMEChain = "semantic/cname-chain"
	// ClassDuplicateRecord duplicates a record verbatim (extension).
	ClassDuplicateRecord = "semantic/duplicate-record"
	// ClassAddressInCNAME replaces a host's A record with a CNAME to
	// another host — the paper's §2.3 example of using a record type for
	// a similar but different purpose (extension).
	ClassAddressInCNAME = "semantic/address-as-cname"
)

// AllClasses lists every fault class, Table 3 rows first.
func AllClasses() []string {
	return []string{
		ClassMissingPTR, ClassPTRToCNAME, ClassCNAMEDupNS, ClassMXToCNAME,
		ClassCNAMEChain, ClassDuplicateRecord, ClassAddressInCNAME,
	}
}

// Plugin generates RFC-1912 faults over a record view.
type Plugin struct {
	// RecordView maps the target's configuration to the record
	// representation (dnsmodel.ZoneRecordView or dnsmodel.TinyRecordView).
	RecordView view.View
	// Classes selects fault classes; nil means all.
	Classes []string
}

// Name identifies the plugin.
func (p *Plugin) Name() string { return "semantic-dns" }

// View returns the record view the plugin's scenarios apply to.
func (p *Plugin) View() view.View { return p.RecordView }

// viewRecord is one record node located in the view set.
type viewRecord struct {
	file string
	ref  template.Ref
	node *confnode.Node
}

func (r viewRecord) typ() string   { return r.node.AttrDefault(dnsmodel.AttrType, "") }
func (r viewRecord) owner() string { return r.node.Name }

// collect gathers all record nodes of the view set with their refs.
func collect(set *confnode.Set) []viewRecord {
	var out []viewRecord
	set.Walk(func(file string, root *confnode.Node) {
		for _, n := range root.ChildrenByKind(confnode.KindRecord) {
			out = append(out, viewRecord{file: file, ref: template.RefOf(file, n), node: n})
		}
	})
	return out
}

// ofType filters records by RR type.
func ofType(recs []viewRecord, typ string) []viewRecord {
	var out []viewRecord
	for _, r := range recs {
		if r.typ() == typ {
			out = append(out, r)
		}
	}
	return out
}

// Generate enumerates the semantic fault scenarios for the record view of
// the initial configuration.
func (p *Plugin) Generate(set *confnode.Set) ([]scenario.Scenario, error) {
	return scenario.Collect(p.GenerateStream(set))
}

// GenerateStream yields the semantic faultload lazily, class by class: the
// record index is built once (bounded by the zone data), and each class's
// scenarios stream out before the next class is synthesized.
func (p *Plugin) GenerateStream(set *confnode.Set) scenario.Source {
	return func(yield func(scenario.Scenario, error) bool) {
		classes := p.Classes
		if classes == nil {
			classes = AllClasses()
		}
		recs := collect(set)
		for _, class := range classes {
			gen, ok := generators[class]
			if !ok {
				yield(scenario.Scenario{}, fmt.Errorf("semantic: unknown fault class %q", class))
				return
			}
			for _, sc := range gen(recs) {
				if !yield(sc, nil) {
					return
				}
			}
		}
	}
}

var generators = map[string]func([]viewRecord) []scenario.Scenario{
	ClassMissingPTR:      genMissingPTR,
	ClassPTRToCNAME:      genPTRToCNAME,
	ClassCNAMEDupNS:      genCNAMEDupNS,
	ClassMXToCNAME:       genMXToCNAME,
	ClassCNAMEChain:      genCNAMEChain,
	ClassDuplicateRecord: genDuplicateRecord,
	ClassAddressInCNAME:  genAddressInCNAME,
}

// resolveRecord resolves a ref and verifies it still denotes a record.
func resolveRecord(s *confnode.Set, ref template.Ref) (*confnode.Node, error) {
	n, err := ref.Resolve(s)
	if err != nil {
		return nil, err
	}
	if n.Kind != confnode.KindRecord {
		return nil, fmt.Errorf("ref %v is not a record: %w", ref, scenario.ErrNotApplicable)
	}
	return n, nil
}

func genMissingPTR(recs []viewRecord) []scenario.Scenario {
	var out []scenario.Scenario
	for i, r := range ofType(recs, "PTR") {
		ref := r.ref
		out = append(out, scenario.Scenario{
			ID:          fmt.Sprintf("%s/%s/%d", ClassMissingPTR, ref, i),
			Class:       ClassMissingPTR,
			Description: fmt.Sprintf("remove PTR %s -> %s", r.owner(), r.node.Value),
			Apply: func(s *confnode.Set) error {
				n, err := resolveRecord(s, ref)
				if err != nil {
					return err
				}
				n.Remove()
				return nil
			},
		})
	}
	return out
}

func genPTRToCNAME(recs []viewRecord) []scenario.Scenario {
	cnames := ofType(recs, "CNAME")
	var out []scenario.Scenario
	seq := 0
	for _, ptr := range ofType(recs, "PTR") {
		for _, c := range cnames {
			// The realistic mistake: the operator writes the alias name
			// instead of the canonical name the alias points to.
			if c.node.Value != ptr.node.Value {
				continue
			}
			ref, alias := ptr.ref, c.owner()
			out = append(out, scenario.Scenario{
				ID:    fmt.Sprintf("%s/%s/%d", ClassPTRToCNAME, ref, seq),
				Class: ClassPTRToCNAME,
				Description: fmt.Sprintf("retarget PTR %s at alias %s (was %s)",
					ptr.owner(), alias, ptr.node.Value),
				Apply: func(s *confnode.Set) error {
					n, err := resolveRecord(s, ref)
					if err != nil {
						return err
					}
					n.Value = alias
					return nil
				},
			})
			seq++
		}
	}
	return out
}

func genCNAMEDupNS(recs []viewRecord) []scenario.Scenario {
	as := ofType(recs, "A")
	var out []scenario.Scenario
	seq := 0
	for _, ns := range ofType(recs, "NS") {
		// Pick a target that is not the NS owner itself.
		var target string
		for _, a := range as {
			if a.owner() != ns.owner() {
				target = a.owner()
				break
			}
		}
		if target == "" {
			continue
		}
		file, owner := ns.file, ns.owner()
		ttl := ns.node.AttrDefault(dnsmodel.AttrTTL, "3600")
		out = append(out, scenario.Scenario{
			ID:          fmt.Sprintf("%s/%s/%d", ClassCNAMEDupNS, ns.ref, seq),
			Class:       ClassCNAMEDupNS,
			Description: fmt.Sprintf("add CNAME %s -> %s alongside NS records", owner, target),
			Apply: func(s *confnode.Set) error {
				root := s.Get(file)
				if root == nil {
					return fmt.Errorf("file %q gone: %w", file, scenario.ErrNotApplicable)
				}
				c := confnode.NewValued(confnode.KindRecord, owner, target)
				c.SetAttr(dnsmodel.AttrType, "CNAME")
				c.SetAttr(dnsmodel.AttrTTL, ttl)
				root.Append(c)
				return nil
			},
		})
		seq++
	}
	return out
}

func genMXToCNAME(recs []viewRecord) []scenario.Scenario {
	cnames := ofType(recs, "CNAME")
	var out []scenario.Scenario
	seq := 0
	for _, mx := range ofType(recs, "MX") {
		for _, c := range cnames {
			ref, alias := mx.ref, c.owner()
			fields := strings.Fields(mx.node.Value)
			if len(fields) != 2 || fields[1] == alias {
				continue
			}
			pref := fields[0]
			out = append(out, scenario.Scenario{
				ID:    fmt.Sprintf("%s/%s/%d", ClassMXToCNAME, ref, seq),
				Class: ClassMXToCNAME,
				Description: fmt.Sprintf("retarget MX %s at alias %s (was %s)",
					mx.owner(), alias, fields[1]),
				Apply: func(s *confnode.Set) error {
					n, err := resolveRecord(s, ref)
					if err != nil {
						return err
					}
					n.Value = pref + " " + alias
					return nil
				},
			})
			seq++
		}
	}
	return out
}

func genCNAMEChain(recs []viewRecord) []scenario.Scenario {
	cnames := ofType(recs, "CNAME")
	var out []scenario.Scenario
	seq := 0
	for _, c1 := range cnames {
		for _, c2 := range cnames {
			if c1.node == c2.node || c1.node.Value == c2.owner() {
				continue
			}
			ref, alias := c1.ref, c2.owner()
			out = append(out, scenario.Scenario{
				ID:          fmt.Sprintf("%s/%s/%d", ClassCNAMEChain, ref, seq),
				Class:       ClassCNAMEChain,
				Description: fmt.Sprintf("chain CNAME %s -> alias %s", c1.owner(), alias),
				Apply: func(s *confnode.Set) error {
					n, err := resolveRecord(s, ref)
					if err != nil {
						return err
					}
					n.Value = alias
					return nil
				},
			})
			seq++
		}
	}
	return out
}

func genDuplicateRecord(recs []viewRecord) []scenario.Scenario {
	var out []scenario.Scenario
	for i, r := range recs {
		if r.typ() == "SOA" {
			continue
		}
		ref := r.ref
		out = append(out, scenario.Scenario{
			ID:          fmt.Sprintf("%s/%s/%d", ClassDuplicateRecord, ref, i),
			Class:       ClassDuplicateRecord,
			Description: fmt.Sprintf("duplicate %s %s", r.typ(), r.owner()),
			Apply: func(s *confnode.Set) error {
				n, err := resolveRecord(s, ref)
				if err != nil {
					return err
				}
				dup := n.Clone()
				dup.DelAttr(view.SrcAttr)
				n.Parent().Append(dup)
				return nil
			},
		})
	}
	return out
}

func genAddressInCNAME(recs []viewRecord) []scenario.Scenario {
	as := ofType(recs, "A")
	var out []scenario.Scenario
	seq := 0
	for _, a := range as {
		// Replace the A record with a CNAME to another host — the §2.3
		// example of misusing CNAME to "associate an address".
		var target string
		for _, other := range as {
			if other.owner() != a.owner() {
				target = other.owner()
				break
			}
		}
		if target == "" {
			continue
		}
		ref := a.ref
		out = append(out, scenario.Scenario{
			ID:          fmt.Sprintf("%s/%s/%d", ClassAddressInCNAME, ref, seq),
			Class:       ClassAddressInCNAME,
			Description: fmt.Sprintf("replace A %s with CNAME -> %s", a.owner(), target),
			Apply: func(s *confnode.Set) error {
				n, err := resolveRecord(s, ref)
				if err != nil {
					return err
				}
				n.SetAttr(dnsmodel.AttrType, "CNAME")
				n.Value = target
				// Losing the provenance part marker would orphan the other
				// half of a combined tinydns directive; keep attrs so the
				// backward transform can detect the inconsistency.
				return nil
			},
		})
		seq++
	}
	return out
}
