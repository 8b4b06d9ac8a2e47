package core

import (
	"conferr/internal/confnode"
	"conferr/internal/profile"
	"conferr/internal/scenario"
)

// FastPath opens a campaign's faultload to the external test package: it
// runs scenarios through the incremental and the reference pipelines one
// at a time and exposes the baseline sets every experiment must leave
// untouched.
type FastPath struct {
	t   *Target
	fl  *faultload
	scr *scratch
}

// OpenFastPath generates c's faultload as the engine does and returns it
// with the validated scenario stream.
func OpenFastPath(c *Campaign) (*FastPath, scenario.Source, error) {
	fl, src, err := c.openStream()
	if err != nil {
		return nil, nil, err
	}
	return &FastPath{t: c.Target, fl: fl, scr: &scratch{}}, src, nil
}

// openStream generates c's base state and returns its faultload as a
// one-worker run pulls it: genFeed's only shard, validated, as a stream.
func (c *Campaign) openStream() (*faultload, scenario.Source, error) {
	fl, err := c.generateBase()
	if err != nil {
		return nil, nil, err
	}
	feed := genFeed(c, fl)
	return fl, func(yield func(scenario.Scenario, error) bool) {
		more := true
		_, err := feed(0, 1, func(_ int, sc scenario.Scenario) bool {
			more = yield(sc, nil)
			return more
		})
		if err != nil && more {
			yield(scenario.Scenario{}, err)
		}
	}, nil
}

// RunFast runs one scenario through runOne on the path's own scratch.
func (p *FastPath) RunFast(sc scenario.Scenario) (profile.Record, error) {
	return runOne(p.t, sc, p.fl, p.scr)
}

// RunReference runs one scenario through runOneReference.
func (p *FastPath) RunReference(sc scenario.Scenario) (profile.Record, error) {
	return runOneReference(p.t, sc, p.fl.view, p.fl.viewSet, p.fl.sysSet)
}

// Baselines returns the campaign-wide sets shared by every experiment,
// by name: the view set, the parsed system set and the fold baseline.
func (p *FastPath) Baselines() map[string]*confnode.Set {
	return map[string]*confnode.Set{"viewSet": p.fl.viewSet, "sysSet": p.fl.sysSet, "baseSys": p.fl.baseSys}
}
