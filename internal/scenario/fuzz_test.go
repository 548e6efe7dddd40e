package scenario

import (
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the scenario loader: no input may
// panic it, every scenario it accepts must compile (Validate is the only
// gate between a config file and a world build), and parsing the same
// bytes twice must give the same scenario.
func FuzzParse(f *testing.F) {
	// One document per event kind, then every kind at once.
	f.Add([]byte(`{"name": "empty"}`))
	f.Add([]byte(`{"name": "ads", "ad_exits": [{"country": "RU", "from": "2022-03-10", "factor": 0.25}]}`))
	f.Add([]byte(`{"name": "spike", "registry_spikes": [{"country": "FR", "week": "2019-05-13", "factor": 1.1}]}`))
	f.Add([]byte(`{"name": "shut", "shutdown_regimes": [{"country": "MM", "from": "2023-01-01", "to": "2023-06-30", "rate": 0.4}]}`))
	f.Add([]byte(`{"name": "shut-open", "shutdown_regimes": [{"country": "IR", "from": "2019-11-16", "rate": 1}]}`))
	f.Add([]byte(`{"name": "cgnat", "cgnat_rollouts": [{"country": "BR", "from": "2022-01-01", "factor": 0.05}]}`))
	f.Add([]byte(`{"name": "vpn", "vpn_surges": [{"from": "2022-06-01", "factor": 3}]}`))
	f.Add([]byte(`{"name": "merge", "mergers": [{"country": "CH", "year": 2020, "probability": 1}]}`))
	f.Add([]byte(`{"name": "enter", "entrants": [{"name": "GLOBALSAT", "home": "US", "countries": ["AU", "BR"],
		"entry_year": 2021, "weight": 0.02, "mobile_share": 0.3}]}`))
	f.Add([]byte(`{
		"name": "everything",
		"notes": "one of each event kind",
		"ad_exits": [{"country": "RU", "from": "2022-03-10", "factor": 0.25}],
		"registry_spikes": [{"country": "FR", "week": "2019-05-13", "factor": 1.1}],
		"shutdown_regimes": [{"country": "MM", "from": "2023-01-01", "to": "2023-06-30", "rate": 0.4}],
		"cgnat_rollouts": [{"country": "BR", "from": "2022-01-01", "factor": 0.05}],
		"vpn_surges": [{"from": "2022-06-01", "factor": 3}],
		"mergers": [{"country": "CH", "year": 2020, "probability": 1}],
		"entrants": [{"name": "GLOBALSAT", "home": "US", "countries": ["AU"], "entry_year": 2021, "weight": 0.02, "mobile_share": 0.3}]
	}`))
	// Near misses the loader must reject.
	f.Add([]byte(`{"name": "x", "ad_exits": [{"country": "RU", "from": "2022-03-10", "factor": 7}]}`))
	f.Add([]byte(`{"name": "x", "shutdown_regimes": [{"country": "MM", "from": "2023-06-30", "to": "2023-01-01", "rate": 0.4}]}`))
	f.Add([]byte(`{"name": "x"} {"name": "y"}`))
	f.Add([]byte(`{"name": "x", "surprise": 1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if _, err := Compile(s); err != nil {
			t.Fatalf("accepted scenario does not compile: %v\n%s", err, data)
		}
		again, err := Parse(data)
		if err != nil {
			t.Fatalf("second parse rejected what the first accepted: %v", err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("two parses of the same bytes differ:\n%+v\n%+v", s, again)
		}
	})
}
