package experiments

import "fmt"

// experiment is one table or figure of the reproduction. Exactly one
// of render and compute is set. render draws every simulation from the
// suite's memoized points, which makes them journalled, observed and
// plannable for distribution (PlanPoints dry-runs it); compute runs its
// own simulations outside Suite.Run and contributes no points.
type experiment struct {
	name    string
	render  func(*Suite) error
	compute func(Options) error
}

// catalog lists every experiment in the order "all" runs them: later
// experiments replay points that earlier ones computed.
var catalog = []experiment{
	{name: "table1", compute: Table1},
	{name: "table2", compute: Table2},
	{name: "table3", render: (*Suite).PrintTable3},
	{name: "table4", compute: Table4},
	{name: "table5", render: (*Suite).PrintTable5},
	{name: "fig2", render: (*Suite).PrintFig2},
	{name: "fig3", compute: Fig3},
	{name: "fig4", render: figFinite(4)},
	{name: "fig5", render: figFinite(5)},
	{name: "fig6", render: figFinite(6)},
	{name: "fig7", render: figFinite(7)},
	{name: "fig8", render: figFinite(8)},
	{name: "table6", render: (*Suite).PrintTable6},
	{name: "table7", render: (*Suite).PrintTable7},
	{name: "ext-assoc", compute: ExtAssociativity},
	{name: "ext-org", compute: ExtOrganizations},
	{name: "ext-scaling", compute: ExtScaling},
	{name: "ext-faults", compute: ExtFaults},
}

func figFinite(fig int) func(*Suite) error {
	return func(s *Suite) error { return s.PrintFigFinite(fig) }
}

// Names lists every experiment in the order "all" runs them.
func Names() []string {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.name
	}
	return names
}

func lookupExperiment(name string) (experiment, error) {
	for _, e := range catalog {
		if e.name == name {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("unknown experiment %q", name)
}

// RunExperiment prints one named experiment: from the suite's memoized
// points if it has a Suite renderer, otherwise under the suite's
// options.
func (s *Suite) RunExperiment(name string) error {
	e, err := lookupExperiment(name)
	if err != nil {
		return err
	}
	if e.render != nil {
		return e.render(s)
	}
	return e.compute(s.Opt)
}
