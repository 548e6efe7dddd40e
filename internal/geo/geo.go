// Package geo provides the static country registry the synthetic world is
// built on: ISO 3166 codes, UN-style subregions (the rows of the paper's
// Table 6), populations, Internet penetration trajectories, a Freedom-House-
// style index, a Google ad-reach factor, and M-Lab search-integration flags.
//
// The numeric values are plausible, hand-curated approximations — they are
// inputs to a simulation, not measurements — but the *relative* structure
// is what the paper's experiments depend on: which countries have low ad
// reach (Russia, Turkmenistan, Eritrea, ...), which have low Internet
// freedom, which host VPN egress concentrations (Norway), which suffer
// shutdowns (Myanmar), and which sit in which consolidation region.
package geo

import "sort"

// Subregion is a UN-geoscheme-style subregion, matching the rows of the
// paper's Table 6 (Appendix D). The catch-all "Asia", "Africa" and
// "Oceania" rows cover Central/Western Asia, Middle/Western Africa, and
// Melanesia/Micronesia/Polynesia respectively, as in the paper.
type Subregion string

// Subregions, in the paper's Table 6 row order.
const (
	Caribbean      Subregion = "Caribbean"
	CentralAmerica Subregion = "Central America"
	SouthAmer      Subregion = "South America"
	NorthernAmer   Subregion = "Northern America"
	EasternAsia    Subregion = "Eastern Asia"
	OtherAsia      Subregion = "Asia"
	SouthernAsia   Subregion = "Southern Asia"
	SouthEastAsia  Subregion = "South-Eastern Asia"
	EasternAfrica  Subregion = "Eastern Africa"
	SouthernAfrica Subregion = "Southern Africa"
	NorthernAfrica Subregion = "Northern Africa"
	OtherAfrica    Subregion = "Africa"
	EasternEurope  Subregion = "Eastern Europe"
	SouthernEurope Subregion = "Southern Europe"
	NorthernEurope Subregion = "Northern Europe"
	WesternEurope  Subregion = "Western Europe"
	AustraliaNZ    Subregion = "Australia and New Zealand"
	OtherOceania   Subregion = "Oceania"
)

// Continent groups subregions for continental analyses (Figure 10).
type Continent string

// Continents.
const (
	Africa       Continent = "Africa"
	Asia         Continent = "Asia"
	Europe       Continent = "Europe"
	NorthAmerica Continent = "North America"
	SouthAmerica Continent = "South America"
	Oceania      Continent = "Oceania"
)

// ContinentOf maps a subregion to its continent.
func ContinentOf(s Subregion) Continent {
	switch s {
	case Caribbean, CentralAmerica, NorthernAmer:
		return NorthAmerica
	case SouthAmer:
		return SouthAmerica
	case EasternAsia, OtherAsia, SouthernAsia, SouthEastAsia:
		return Asia
	case EasternAfrica, SouthernAfrica, NorthernAfrica, OtherAfrica:
		return Africa
	case EasternEurope, SouthernEurope, NorthernEurope, WesternEurope:
		return Europe
	default:
		return Oceania
	}
}

// AllSubregions returns every subregion in Table 6 row order.
func AllSubregions() []Subregion {
	return []Subregion{
		Caribbean, CentralAmerica, SouthAmer, NorthernAmer,
		EasternAsia, OtherAsia, SouthernAsia, SouthEastAsia,
		EasternAfrica, SouthernAfrica, NorthernAfrica, OtherAfrica,
		EasternEurope, SouthernEurope, NorthernEurope, WesternEurope,
		AustraliaNZ, OtherOceania,
	}
}

// Country is one entry of the registry.
type Country struct {
	Code      string    // ISO 3166-1 alpha-2 (plus the CDN's "T1" for Tor)
	Name      string    // English short name
	Subregion Subregion // UN-style subregion (Table 6 rows)

	Population int64   // approximate 2024 population
	Pen2013    float64 // Internet penetration in 2013, in [0,1]
	Pen2024    float64 // Internet penetration in 2024, in [0,1]

	Freedom int // Freedom-House-style Internet freedom index, 0..100

	// AdReach is the fraction of a country's Internet users effectively
	// reachable by Google-Ads impressions — the paper's first APNIC bias
	// (§3.2). Near 1 where Google dominates, near 0 where it is banned
	// or marginal (Russia/Yandex, China, North Korea, Turkmenistan...).
	AdReach float64

	// AdVolatility is the day-to-day multiplicative noise (log-sigma) of
	// ad impressions. High values model the unstable ad serving the
	// paper observes in parts of Africa (Figure 7's transient dips).
	AdVolatility float64

	// MLabIntegrated reports whether the M-Lab speed test is surfaced in
	// Google Search for this country (§5.2's filtering step).
	MLabIntegrated bool

	// HouseholdSize converts broadband subscribers to users (§3.3:
	// "a subscriber can represent a whole family").
	HouseholdSize float64

	// VPNHub marks countries hosting large VPN egress deployments whose
	// IPs geolocate locally while users are elsewhere (Norway, §4.4).
	VPNHub bool

	// ShutdownRate is the per-day probability of a government-ordered
	// Internet shutdown suppressing most traffic (Myanmar, §4.4).
	ShutdownRate float64
}

// Continent returns the country's continent.
func (c Country) Continent() Continent { return ContinentOf(c.Subregion) }

// Penetration returns the Internet penetration for a year, linearly
// interpolated between the 2013 and 2024 anchors and clamped outside.
func (c Country) Penetration(year int) float64 {
	switch {
	case year <= 2013:
		return c.Pen2013
	case year >= 2024:
		return c.Pen2024
	}
	f := float64(year-2013) / 11
	return c.Pen2013 + f*(c.Pen2024-c.Pen2013)
}

// InternetUsers returns the estimated number of Internet users in a year.
func (c Country) InternetUsers(year int) float64 {
	return float64(c.Population) * c.Penetration(year)
}

// registry is the master table. Values are hand-curated approximations;
// see the package comment for what actually matters about them.
var registry = []Country{
	// ---- Northern America ----
	{Code: "US", Name: "United States", Subregion: NorthernAmer, Population: 335_000_000, Pen2013: 0.75, Pen2024: 0.92, Freedom: 76, AdReach: 0.92, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.5},
	{Code: "CA", Name: "Canada", Subregion: NorthernAmer, Population: 39_000_000, Pen2013: 0.85, Pen2024: 0.94, Freedom: 88, AdReach: 0.93, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.4},

	// ---- Caribbean ----
	{Code: "JM", Name: "Jamaica", Subregion: Caribbean, Population: 2_800_000, Pen2013: 0.38, Pen2024: 0.70, Freedom: 75, AdReach: 0.85, AdVolatility: 0.10, MLabIntegrated: true, HouseholdSize: 3.1},
	{Code: "CU", Name: "Cuba", Subregion: Caribbean, Population: 11_000_000, Pen2013: 0.26, Pen2024: 0.71, Freedom: 20, AdReach: 0.30, AdVolatility: 0.20, MLabIntegrated: false, HouseholdSize: 2.9},
	{Code: "DO", Name: "Dominican Republic", Subregion: Caribbean, Population: 11_300_000, Pen2013: 0.46, Pen2024: 0.85, Freedom: 70, AdReach: 0.87, AdVolatility: 0.09, MLabIntegrated: true, HouseholdSize: 3.3},
	{Code: "HT", Name: "Haiti", Subregion: Caribbean, Population: 11_700_000, Pen2013: 0.10, Pen2024: 0.39, Freedom: 55, AdReach: 0.60, AdVolatility: 0.18, MLabIntegrated: false, HouseholdSize: 4.3},
	{Code: "TT", Name: "Trinidad and Tobago", Subregion: Caribbean, Population: 1_500_000, Pen2013: 0.64, Pen2024: 0.81, Freedom: 78, AdReach: 0.88, AdVolatility: 0.08, MLabIntegrated: true, HouseholdSize: 3.2},

	// ---- Central America ----
	{Code: "MX", Name: "Mexico", Subregion: CentralAmerica, Population: 129_000_000, Pen2013: 0.43, Pen2024: 0.81, Freedom: 60, AdReach: 0.90, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 3.6},
	{Code: "CR", Name: "Costa Rica", Subregion: CentralAmerica, Population: 5_200_000, Pen2013: 0.46, Pen2024: 0.85, Freedom: 85, AdReach: 0.91, AdVolatility: 0.07, MLabIntegrated: true, HouseholdSize: 3.1},
	{Code: "GT", Name: "Guatemala", Subregion: CentralAmerica, Population: 17_600_000, Pen2013: 0.23, Pen2024: 0.56, Freedom: 62, AdReach: 0.84, AdVolatility: 0.12, MLabIntegrated: true, HouseholdSize: 4.6},
	{Code: "PA", Name: "Panama", Subregion: CentralAmerica, Population: 4_400_000, Pen2013: 0.43, Pen2024: 0.74, Freedom: 72, AdReach: 0.88, AdVolatility: 0.09, MLabIntegrated: true, HouseholdSize: 3.5},
	{Code: "SV", Name: "El Salvador", Subregion: CentralAmerica, Population: 6_300_000, Pen2013: 0.23, Pen2024: 0.65, Freedom: 58, AdReach: 0.85, AdVolatility: 0.11, MLabIntegrated: true, HouseholdSize: 3.8},

	// ---- South America ----
	{Code: "BR", Name: "Brazil", Subregion: SouthAmer, Population: 216_000_000, Pen2013: 0.51, Pen2024: 0.84, Freedom: 64, AdReach: 0.60, AdVolatility: 0.08, MLabIntegrated: true, HouseholdSize: 3.0},
	{Code: "AR", Name: "Argentina", Subregion: SouthAmer, Population: 46_000_000, Pen2013: 0.60, Pen2024: 0.89, Freedom: 71, AdReach: 0.90, AdVolatility: 0.07, MLabIntegrated: true, HouseholdSize: 3.0},
	{Code: "CL", Name: "Chile", Subregion: SouthAmer, Population: 19_600_000, Pen2013: 0.65, Pen2024: 0.94, Freedom: 80, AdReach: 0.91, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 3.1},
	{Code: "CO", Name: "Colombia", Subregion: SouthAmer, Population: 52_000_000, Pen2013: 0.50, Pen2024: 0.77, Freedom: 65, AdReach: 0.89, AdVolatility: 0.08, MLabIntegrated: true, HouseholdSize: 3.2},
	{Code: "PE", Name: "Peru", Subregion: SouthAmer, Population: 34_000_000, Pen2013: 0.39, Pen2024: 0.75, Freedom: 68, AdReach: 0.88, AdVolatility: 0.09, MLabIntegrated: true, HouseholdSize: 3.7},
	{Code: "UY", Name: "Uruguay", Subregion: SouthAmer, Population: 3_400_000, Pen2013: 0.58, Pen2024: 0.90, Freedom: 86, AdReach: 0.92, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 2.8},
	{Code: "BO", Name: "Bolivia", Subregion: SouthAmer, Population: 12_200_000, Pen2013: 0.37, Pen2024: 0.66, Freedom: 61, AdReach: 0.85, AdVolatility: 0.12, MLabIntegrated: true, HouseholdSize: 3.5},
	{Code: "EC", Name: "Ecuador", Subregion: SouthAmer, Population: 18_000_000, Pen2013: 0.40, Pen2024: 0.73, Freedom: 66, AdReach: 0.87, AdVolatility: 0.10, MLabIntegrated: true, HouseholdSize: 3.6},
	{Code: "PY", Name: "Paraguay", Subregion: SouthAmer, Population: 6_900_000, Pen2013: 0.37, Pen2024: 0.77, Freedom: 64, AdReach: 0.86, AdVolatility: 0.11, MLabIntegrated: true, HouseholdSize: 4.0},
	{Code: "VE", Name: "Venezuela", Subregion: SouthAmer, Population: 28_000_000, Pen2013: 0.55, Pen2024: 0.72, Freedom: 29, AdReach: 0.65, AdVolatility: 0.16, MLabIntegrated: false, HouseholdSize: 3.9},

	// ---- Eastern Asia ----
	{Code: "CN", Name: "China", Subregion: EasternAsia, Population: 1_410_000_000, Pen2013: 0.45, Pen2024: 0.77, Freedom: 9, AdReach: 0.35, AdVolatility: 0.10, MLabIntegrated: false, HouseholdSize: 2.8},
	{Code: "JP", Name: "Japan", Subregion: EasternAsia, Population: 124_000_000, Pen2013: 0.88, Pen2024: 0.94, Freedom: 77, AdReach: 0.88, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.2},
	{Code: "KR", Name: "Korea, Republic of", Subregion: EasternAsia, Population: 51_700_000, Pen2013: 0.85, Pen2024: 0.97, Freedom: 67, AdReach: 0.70, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 2.3},
	{Code: "TW", Name: "Taiwan", Subregion: EasternAsia, Population: 23_400_000, Pen2013: 0.76, Pen2024: 0.92, Freedom: 79, AdReach: 0.89, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 2.7},
	{Code: "MN", Name: "Mongolia", Subregion: EasternAsia, Population: 3_400_000, Pen2013: 0.18, Pen2024: 0.84, Freedom: 65, AdReach: 0.82, AdVolatility: 0.12, MLabIntegrated: true, HouseholdSize: 3.5},
	{Code: "HK", Name: "Hong Kong", Subregion: EasternAsia, Population: 7_400_000, Pen2013: 0.74, Pen2024: 0.95, Freedom: 42, AdReach: 0.85, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 2.7},
	{Code: "KP", Name: "Korea, Democratic People's Republic of", Subregion: EasternAsia, Population: 26_000_000, Pen2013: 0.001, Pen2024: 0.002, Freedom: 3, AdReach: 0, AdVolatility: 0.40, MLabIntegrated: false, HouseholdSize: 3.9},

	// ---- Southern Asia ----
	{Code: "IN", Name: "India", Subregion: SouthernAsia, Population: 1_430_000_000, Pen2013: 0.15, Pen2024: 0.52, Freedom: 50, AdReach: 0.90, AdVolatility: 0.08, MLabIntegrated: true, HouseholdSize: 4.4},
	{Code: "PK", Name: "Pakistan", Subregion: SouthernAsia, Population: 240_000_000, Pen2013: 0.11, Pen2024: 0.41, Freedom: 26, AdReach: 0.75, AdVolatility: 0.14, MLabIntegrated: true, HouseholdSize: 6.2},
	{Code: "BD", Name: "Bangladesh", Subregion: SouthernAsia, Population: 172_000_000, Pen2013: 0.07, Pen2024: 0.44, Freedom: 41, AdReach: 0.78, AdVolatility: 0.13, MLabIntegrated: true, HouseholdSize: 4.3},
	{Code: "LK", Name: "Sri Lanka", Subregion: SouthernAsia, Population: 22_200_000, Pen2013: 0.12, Pen2024: 0.50, Freedom: 52, AdReach: 0.45, AdVolatility: 0.20, MLabIntegrated: true, HouseholdSize: 3.8},
	{Code: "NP", Name: "Nepal", Subregion: SouthernAsia, Population: 30_500_000, Pen2013: 0.13, Pen2024: 0.51, Freedom: 57, AdReach: 0.80, AdVolatility: 0.13, MLabIntegrated: true, HouseholdSize: 4.3},
	{Code: "AF", Name: "Afghanistan", Subregion: SouthernAsia, Population: 42_000_000, Pen2013: 0.06, Pen2024: 0.18, Freedom: 14, AdReach: 0.40, AdVolatility: 0.25, MLabIntegrated: false, HouseholdSize: 8.0},
	{Code: "IR", Name: "Iran, Islamic Republic of", Subregion: SouthernAsia, Population: 89_000_000, Pen2013: 0.30, Pen2024: 0.79, Freedom: 11, AdReach: 0.25, AdVolatility: 0.22, MLabIntegrated: false, HouseholdSize: 3.3},

	// ---- South-Eastern Asia ----
	{Code: "ID", Name: "Indonesia", Subregion: SouthEastAsia, Population: 277_000_000, Pen2013: 0.15, Pen2024: 0.67, Freedom: 47, AdReach: 0.88, AdVolatility: 0.09, MLabIntegrated: true, HouseholdSize: 3.9},
	{Code: "TH", Name: "Thailand", Subregion: SouthEastAsia, Population: 71_800_000, Pen2013: 0.29, Pen2024: 0.88, Freedom: 39, AdReach: 0.55, AdVolatility: 0.15, MLabIntegrated: true, HouseholdSize: 3.0},
	{Code: "VN", Name: "Viet Nam", Subregion: SouthEastAsia, Population: 98_900_000, Pen2013: 0.39, Pen2024: 0.79, Freedom: 22, AdReach: 0.72, AdVolatility: 0.12, MLabIntegrated: true, HouseholdSize: 3.5},
	{Code: "PH", Name: "Philippines", Subregion: SouthEastAsia, Population: 117_000_000, Pen2013: 0.37, Pen2024: 0.73, Freedom: 61, AdReach: 0.89, AdVolatility: 0.09, MLabIntegrated: true, HouseholdSize: 4.2},
	{Code: "MY", Name: "Malaysia", Subregion: SouthEastAsia, Population: 34_300_000, Pen2013: 0.57, Pen2024: 0.98, Freedom: 61, AdReach: 0.90, AdVolatility: 0.07, MLabIntegrated: true, HouseholdSize: 3.9},
	{Code: "MM", Name: "Myanmar", Subregion: SouthEastAsia, Population: 54_600_000, Pen2013: 0.02, Pen2024: 0.44, Freedom: 9, AdReach: 0.15, AdVolatility: 0.30, MLabIntegrated: false, HouseholdSize: 4.2, ShutdownRate: 0.10},
	{Code: "KH", Name: "Cambodia", Subregion: SouthEastAsia, Population: 16_900_000, Pen2013: 0.07, Pen2024: 0.60, Freedom: 44, AdReach: 0.80, AdVolatility: 0.14, MLabIntegrated: true, HouseholdSize: 4.5},
	{Code: "SG", Name: "Singapore", Subregion: SouthEastAsia, Population: 5_900_000, Pen2013: 0.79, Pen2024: 0.96, Freedom: 54, AdReach: 0.91, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 3.1},
	{Code: "LA", Name: "Lao People's Democratic Republic", Subregion: SouthEastAsia, Population: 7_600_000, Pen2013: 0.13, Pen2024: 0.66, Freedom: 26, AdReach: 0.65, AdVolatility: 0.17, MLabIntegrated: false, HouseholdSize: 4.8},

	// ---- Asia (Central + Western) ----
	{Code: "KZ", Name: "Kazakhstan", Subregion: OtherAsia, Population: 19_600_000, Pen2013: 0.54, Pen2024: 0.92, Freedom: 34, AdReach: 0.60, AdVolatility: 0.12, MLabIntegrated: true, HouseholdSize: 3.4},
	{Code: "UZ", Name: "Uzbekistan", Subregion: OtherAsia, Population: 35_600_000, Pen2013: 0.27, Pen2024: 0.77, Freedom: 27, AdReach: 0.55, AdVolatility: 0.14, MLabIntegrated: true, HouseholdSize: 4.8},
	{Code: "TM", Name: "Turkmenistan", Subregion: OtherAsia, Population: 6_500_000, Pen2013: 0.07, Pen2024: 0.38, Freedom: 5, AdReach: 0.02, AdVolatility: 0.35, MLabIntegrated: false, HouseholdSize: 5.2},
	{Code: "KG", Name: "Kyrgyzstan", Subregion: OtherAsia, Population: 7_000_000, Pen2013: 0.23, Pen2024: 0.78, Freedom: 53, AdReach: 0.62, AdVolatility: 0.14, MLabIntegrated: true, HouseholdSize: 4.2},
	{Code: "SA", Name: "Saudi Arabia", Subregion: OtherAsia, Population: 36_400_000, Pen2013: 0.60, Pen2024: 0.99, Freedom: 25, AdReach: 0.85, AdVolatility: 0.08, MLabIntegrated: true, HouseholdSize: 5.0},
	{Code: "AE", Name: "United Arab Emirates", Subregion: OtherAsia, Population: 9_500_000, Pen2013: 0.88, Pen2024: 0.99, Freedom: 28, AdReach: 0.87, AdVolatility: 0.07, MLabIntegrated: true, HouseholdSize: 4.5},
	{Code: "IL", Name: "Israel", Subregion: OtherAsia, Population: 9_800_000, Pen2013: 0.71, Pen2024: 0.90, Freedom: 74, AdReach: 0.90, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 3.1},
	{Code: "TR", Name: "Türkiye", Subregion: OtherAsia, Population: 85_800_000, Pen2013: 0.46, Pen2024: 0.86, Freedom: 30, AdReach: 0.84, AdVolatility: 0.10, MLabIntegrated: true, HouseholdSize: 3.2},
	{Code: "IQ", Name: "Iraq", Subregion: OtherAsia, Population: 45_500_000, Pen2013: 0.09, Pen2024: 0.79, Freedom: 38, AdReach: 0.70, AdVolatility: 0.16, MLabIntegrated: true, HouseholdSize: 6.0},
	{Code: "YE", Name: "Yemen", Subregion: OtherAsia, Population: 34_400_000, Pen2013: 0.20, Pen2024: 0.27, Freedom: 24, AdReach: 0.30, AdVolatility: 0.25, MLabIntegrated: false, HouseholdSize: 6.7},
	{Code: "JO", Name: "Jordan", Subregion: OtherAsia, Population: 11_300_000, Pen2013: 0.41, Pen2024: 0.88, Freedom: 46, AdReach: 0.86, AdVolatility: 0.09, MLabIntegrated: true, HouseholdSize: 4.7},
	{Code: "OM", Name: "Oman", Subregion: OtherAsia, Population: 4_600_000, Pen2013: 0.66, Pen2024: 0.96, Freedom: 45, AdReach: 0.85, AdVolatility: 0.08, MLabIntegrated: true, HouseholdSize: 5.4},
	{Code: "GE", Name: "Georgia", Subregion: OtherAsia, Population: 3_700_000, Pen2013: 0.43, Pen2024: 0.79, Freedom: 76, AdReach: 0.83, AdVolatility: 0.09, MLabIntegrated: true, HouseholdSize: 3.3},
	{Code: "AM", Name: "Armenia", Subregion: OtherAsia, Population: 2_800_000, Pen2013: 0.42, Pen2024: 0.79, Freedom: 71, AdReach: 0.80, AdVolatility: 0.10, MLabIntegrated: true, HouseholdSize: 3.6},
	{Code: "AZ", Name: "Azerbaijan", Subregion: OtherAsia, Population: 10_200_000, Pen2013: 0.59, Pen2024: 0.88, Freedom: 37, AdReach: 0.70, AdVolatility: 0.12, MLabIntegrated: true, HouseholdSize: 4.0},

	// ---- Eastern Africa ----
	{Code: "KE", Name: "Kenya", Subregion: EasternAfrica, Population: 55_100_000, Pen2013: 0.13, Pen2024: 0.41, Freedom: 66, AdReach: 0.82, AdVolatility: 0.14, MLabIntegrated: true, HouseholdSize: 3.9},
	{Code: "ET", Name: "Ethiopia", Subregion: EasternAfrica, Population: 126_500_000, Pen2013: 0.02, Pen2024: 0.21, Freedom: 27, AdReach: 0.55, AdVolatility: 0.22, MLabIntegrated: false, HouseholdSize: 4.6},
	{Code: "TZ", Name: "Tanzania, United Republic of", Subregion: EasternAfrica, Population: 67_400_000, Pen2013: 0.04, Pen2024: 0.32, Freedom: 52, AdReach: 0.72, AdVolatility: 0.18, MLabIntegrated: true, HouseholdSize: 4.9},
	{Code: "UG", Name: "Uganda", Subregion: EasternAfrica, Population: 48_600_000, Pen2013: 0.13, Pen2024: 0.27, Freedom: 51, AdReach: 0.70, AdVolatility: 0.19, MLabIntegrated: true, HouseholdSize: 4.5},
	{Code: "MG", Name: "Madagascar", Subregion: EasternAfrica, Population: 30_300_000, Pen2013: 0.02, Pen2024: 0.20, Freedom: 58, AdReach: 0.10, AdVolatility: 0.30, MLabIntegrated: false, HouseholdSize: 4.5},
	{Code: "MZ", Name: "Mozambique", Subregion: EasternAfrica, Population: 33_900_000, Pen2013: 0.05, Pen2024: 0.21, Freedom: 49, AdReach: 0.62, AdVolatility: 0.20, MLabIntegrated: true, HouseholdSize: 4.4},
	{Code: "ZW", Name: "Zimbabwe", Subregion: EasternAfrica, Population: 16_300_000, Pen2013: 0.15, Pen2024: 0.35, Freedom: 48, AdReach: 0.65, AdVolatility: 0.18, MLabIntegrated: true, HouseholdSize: 4.1},
	{Code: "ER", Name: "Eritrea", Subregion: EasternAfrica, Population: 3_700_000, Pen2013: 0.009, Pen2024: 0.25, Freedom: 8, AdReach: 0.03, AdVolatility: 0.35, MLabIntegrated: false, HouseholdSize: 5.0},
	{Code: "SO", Name: "Somalia", Subregion: EasternAfrica, Population: 18_100_000, Pen2013: 0.015, Pen2024: 0.28, Freedom: 27, AdReach: 0.45, AdVolatility: 0.26, MLabIntegrated: false, HouseholdSize: 6.1},
	{Code: "RW", Name: "Rwanda", Subregion: EasternAfrica, Population: 14_100_000, Pen2013: 0.09, Pen2024: 0.34, Freedom: 37, AdReach: 0.70, AdVolatility: 0.17, MLabIntegrated: true, HouseholdSize: 4.3},
	{Code: "ZM", Name: "Zambia", Subregion: EasternAfrica, Population: 20_600_000, Pen2013: 0.15, Pen2024: 0.31, Freedom: 59, AdReach: 0.68, AdVolatility: 0.18, MLabIntegrated: true, HouseholdSize: 5.1},

	// ---- Southern Africa ----
	{Code: "ZA", Name: "South Africa", Subregion: SouthernAfrica, Population: 60_400_000, Pen2013: 0.47, Pen2024: 0.75, Freedom: 74, AdReach: 0.89, AdVolatility: 0.08, MLabIntegrated: true, HouseholdSize: 3.4},
	{Code: "NA", Name: "Namibia", Subregion: SouthernAfrica, Population: 2_600_000, Pen2013: 0.14, Pen2024: 0.62, Freedom: 72, AdReach: 0.84, AdVolatility: 0.11, MLabIntegrated: true, HouseholdSize: 4.2},
	{Code: "BW", Name: "Botswana", Subregion: SouthernAfrica, Population: 2_700_000, Pen2013: 0.15, Pen2024: 0.77, Freedom: 70, AdReach: 0.85, AdVolatility: 0.10, MLabIntegrated: true, HouseholdSize: 3.7},

	// ---- Northern Africa ----
	{Code: "EG", Name: "Egypt", Subregion: NorthernAfrica, Population: 112_700_000, Pen2013: 0.29, Pen2024: 0.72, Freedom: 28, AdReach: 0.82, AdVolatility: 0.11, MLabIntegrated: true, HouseholdSize: 4.1},
	{Code: "DZ", Name: "Algeria", Subregion: NorthernAfrica, Population: 45_600_000, Pen2013: 0.16, Pen2024: 0.71, Freedom: 40, AdReach: 0.80, AdVolatility: 0.12, MLabIntegrated: true, HouseholdSize: 5.2},
	{Code: "MA", Name: "Morocco", Subregion: NorthernAfrica, Population: 37_800_000, Pen2013: 0.56, Pen2024: 0.90, Freedom: 51, AdReach: 0.85, AdVolatility: 0.09, MLabIntegrated: true, HouseholdSize: 4.3},
	{Code: "TN", Name: "Tunisia", Subregion: NorthernAfrica, Population: 12_500_000, Pen2013: 0.43, Pen2024: 0.79, Freedom: 60, AdReach: 0.86, AdVolatility: 0.09, MLabIntegrated: true, HouseholdSize: 3.9},
	{Code: "SD", Name: "Sudan", Subregion: NorthernAfrica, Population: 48_100_000, Pen2013: 0.22, Pen2024: 0.29, Freedom: 21, AdReach: 0.05, AdVolatility: 0.32, MLabIntegrated: false, HouseholdSize: 5.7},
	{Code: "LY", Name: "Libya", Subregion: NorthernAfrica, Population: 6_900_000, Pen2013: 0.16, Pen2024: 0.48, Freedom: 30, AdReach: 0.60, AdVolatility: 0.20, MLabIntegrated: false, HouseholdSize: 5.8},

	// ---- Africa (Middle + Western) ----
	{Code: "NG", Name: "Nigeria", Subregion: OtherAfrica, Population: 223_800_000, Pen2013: 0.19, Pen2024: 0.45, Freedom: 59, AdReach: 0.83, AdVolatility: 0.13, MLabIntegrated: true, HouseholdSize: 4.9},
	{Code: "GH", Name: "Ghana", Subregion: OtherAfrica, Population: 34_100_000, Pen2013: 0.12, Pen2024: 0.70, Freedom: 65, AdReach: 0.82, AdVolatility: 0.13, MLabIntegrated: true, HouseholdSize: 3.6},
	{Code: "CI", Name: "Côte d'Ivoire", Subregion: OtherAfrica, Population: 28_900_000, Pen2013: 0.12, Pen2024: 0.45, Freedom: 61, AdReach: 0.78, AdVolatility: 0.15, MLabIntegrated: true, HouseholdSize: 5.0},
	{Code: "SN", Name: "Senegal", Subregion: OtherAfrica, Population: 17_800_000, Pen2013: 0.13, Pen2024: 0.60, Freedom: 64, AdReach: 0.80, AdVolatility: 0.14, MLabIntegrated: true, HouseholdSize: 8.3},
	{Code: "CM", Name: "Cameroon", Subregion: OtherAfrica, Population: 28_600_000, Pen2013: 0.06, Pen2024: 0.45, Freedom: 44, AdReach: 0.35, AdVolatility: 0.28, MLabIntegrated: false, HouseholdSize: 5.0},
	{Code: "CG", Name: "Congo", Subregion: OtherAfrica, Population: 6_100_000, Pen2013: 0.07, Pen2024: 0.33, Freedom: 41, AdReach: 0.30, AdVolatility: 0.30, MLabIntegrated: false, HouseholdSize: 4.5},
	{Code: "CD", Name: "Congo, The Democratic Republic of the", Subregion: OtherAfrica, Population: 102_300_000, Pen2013: 0.02, Pen2024: 0.23, Freedom: 43, AdReach: 0.50, AdVolatility: 0.24, MLabIntegrated: false, HouseholdSize: 5.3},
	{Code: "BJ", Name: "Benin", Subregion: OtherAfrica, Population: 13_700_000, Pen2013: 0.05, Pen2024: 0.34, Freedom: 60, AdReach: 0.32, AdVolatility: 0.28, MLabIntegrated: false, HouseholdSize: 5.2},
	{Code: "TG", Name: "Togo", Subregion: OtherAfrica, Population: 9_100_000, Pen2013: 0.05, Pen2024: 0.37, Freedom: 55, AdReach: 0.66, AdVolatility: 0.19, MLabIntegrated: true, HouseholdSize: 4.4},
	{Code: "ML", Name: "Mali", Subregion: OtherAfrica, Population: 23_300_000, Pen2013: 0.03, Pen2024: 0.35, Freedom: 38, AdReach: 0.58, AdVolatility: 0.22, MLabIntegrated: false, HouseholdSize: 5.9},
	{Code: "GN", Name: "Guinea", Subregion: OtherAfrica, Population: 14_200_000, Pen2013: 0.02, Pen2024: 0.35, Freedom: 45, AdReach: 0.55, AdVolatility: 0.23, MLabIntegrated: false, HouseholdSize: 6.2},
	{Code: "BF", Name: "Burkina Faso", Subregion: OtherAfrica, Population: 23_300_000, Pen2013: 0.04, Pen2024: 0.22, Freedom: 42, AdReach: 0.55, AdVolatility: 0.23, MLabIntegrated: false, HouseholdSize: 5.9},
	{Code: "GA", Name: "Gabon", Subregion: OtherAfrica, Population: 2_400_000, Pen2013: 0.28, Pen2024: 0.72, Freedom: 47, AdReach: 0.70, AdVolatility: 0.16, MLabIntegrated: true, HouseholdSize: 4.1},

	// ---- Eastern Europe ----
	{Code: "RU", Name: "Russian Federation", Subregion: EasternEurope, Population: 144_400_000, Pen2013: 0.61, Pen2024: 0.90, Freedom: 21, AdReach: 0.25, AdVolatility: 0.14, MLabIntegrated: false, HouseholdSize: 2.6},
	{Code: "PL", Name: "Poland", Subregion: EasternEurope, Population: 37_700_000, Pen2013: 0.63, Pen2024: 0.87, Freedom: 77, AdReach: 0.91, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 2.6},
	{Code: "UA", Name: "Ukraine", Subregion: EasternEurope, Population: 37_000_000, Pen2013: 0.41, Pen2024: 0.80, Freedom: 59, AdReach: 0.85, AdVolatility: 0.12, MLabIntegrated: true, HouseholdSize: 2.5},
	{Code: "RO", Name: "Romania", Subregion: EasternEurope, Population: 19_100_000, Pen2013: 0.50, Pen2024: 0.89, Freedom: 78, AdReach: 0.90, AdVolatility: 0.07, MLabIntegrated: true, HouseholdSize: 2.8},
	{Code: "CZ", Name: "Czechia", Subregion: EasternEurope, Population: 10_500_000, Pen2013: 0.74, Pen2024: 0.93, Freedom: 79, AdReach: 0.91, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 2.4},
	{Code: "HU", Name: "Hungary", Subregion: EasternEurope, Population: 9_600_000, Pen2013: 0.72, Pen2024: 0.91, Freedom: 69, AdReach: 0.90, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 2.6},
	{Code: "BG", Name: "Bulgaria", Subregion: EasternEurope, Population: 6_400_000, Pen2013: 0.53, Pen2024: 0.88, Freedom: 71, AdReach: 0.89, AdVolatility: 0.07, MLabIntegrated: true, HouseholdSize: 2.5},
	{Code: "SK", Name: "Slovakia", Subregion: EasternEurope, Population: 5_400_000, Pen2013: 0.78, Pen2024: 0.92, Freedom: 76, AdReach: 0.90, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 2.9},
	{Code: "BY", Name: "Belarus", Subregion: EasternEurope, Population: 9_200_000, Pen2013: 0.54, Pen2024: 0.90, Freedom: 25, AdReach: 0.45, AdVolatility: 0.14, MLabIntegrated: false, HouseholdSize: 2.5},
	{Code: "MD", Name: "Moldova, Republic of", Subregion: EasternEurope, Population: 2_500_000, Pen2013: 0.45, Pen2024: 0.80, Freedom: 65, AdReach: 0.84, AdVolatility: 0.09, MLabIntegrated: true, HouseholdSize: 2.9},

	// ---- Southern Europe ----
	{Code: "IT", Name: "Italy", Subregion: SouthernEurope, Population: 58_800_000, Pen2013: 0.58, Pen2024: 0.86, Freedom: 76, AdReach: 0.91, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 2.3},
	{Code: "ES", Name: "Spain", Subregion: SouthernEurope, Population: 48_400_000, Pen2013: 0.72, Pen2024: 0.95, Freedom: 79, AdReach: 0.92, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.5},
	{Code: "GR", Name: "Greece", Subregion: SouthernEurope, Population: 10_400_000, Pen2013: 0.60, Pen2024: 0.86, Freedom: 75, AdReach: 0.90, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 2.5},
	{Code: "PT", Name: "Portugal", Subregion: SouthernEurope, Population: 10_300_000, Pen2013: 0.62, Pen2024: 0.88, Freedom: 82, AdReach: 0.91, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 2.5},
	{Code: "RS", Name: "Serbia", Subregion: SouthernEurope, Population: 6_600_000, Pen2013: 0.53, Pen2024: 0.85, Freedom: 57, AdReach: 0.87, AdVolatility: 0.08, MLabIntegrated: true, HouseholdSize: 2.9},
	{Code: "HR", Name: "Croatia", Subregion: SouthernEurope, Population: 3_900_000, Pen2013: 0.67, Pen2024: 0.84, Freedom: 73, AdReach: 0.90, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 2.8},
	{Code: "SI", Name: "Slovenia", Subregion: SouthernEurope, Population: 2_100_000, Pen2013: 0.73, Pen2024: 0.90, Freedom: 78, AdReach: 0.91, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 2.5},
	{Code: "AL", Name: "Albania", Subregion: SouthernEurope, Population: 2_800_000, Pen2013: 0.57, Pen2024: 0.83, Freedom: 67, AdReach: 0.86, AdVolatility: 0.08, MLabIntegrated: true, HouseholdSize: 3.6},

	// ---- Northern Europe ----
	{Code: "GB", Name: "United Kingdom", Subregion: NorthernEurope, Population: 67_700_000, Pen2013: 0.90, Pen2024: 0.97, Freedom: 79, AdReach: 0.93, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.3},
	{Code: "SE", Name: "Sweden", Subregion: NorthernEurope, Population: 10_500_000, Pen2013: 0.95, Pen2024: 0.97, Freedom: 88, AdReach: 0.93, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.2},
	{Code: "NO", Name: "Norway", Subregion: NorthernEurope, Population: 5_500_000, Pen2013: 0.95, Pen2024: 0.99, Freedom: 94, AdReach: 0.93, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.2, VPNHub: true},
	{Code: "DK", Name: "Denmark", Subregion: NorthernEurope, Population: 5_900_000, Pen2013: 0.95, Pen2024: 0.99, Freedom: 91, AdReach: 0.93, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.1},
	{Code: "FI", Name: "Finland", Subregion: NorthernEurope, Population: 5_500_000, Pen2013: 0.91, Pen2024: 0.97, Freedom: 90, AdReach: 0.93, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.0},
	{Code: "IE", Name: "Ireland", Subregion: NorthernEurope, Population: 5_300_000, Pen2013: 0.78, Pen2024: 0.96, Freedom: 85, AdReach: 0.92, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.7},
	{Code: "LT", Name: "Lithuania", Subregion: NorthernEurope, Population: 2_800_000, Pen2013: 0.68, Pen2024: 0.88, Freedom: 80, AdReach: 0.90, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 2.2},
	{Code: "EE", Name: "Estonia", Subregion: NorthernEurope, Population: 1_300_000, Pen2013: 0.80, Pen2024: 0.93, Freedom: 93, AdReach: 0.92, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.1},
	{Code: "IS", Name: "Iceland", Subregion: NorthernEurope, Population: 390_000, Pen2013: 0.97, Pen2024: 1.00, Freedom: 94, AdReach: 0.93, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.5},

	// ---- Western Europe ----
	{Code: "DE", Name: "Germany", Subregion: WesternEurope, Population: 84_400_000, Pen2013: 0.84, Pen2024: 0.93, Freedom: 77, AdReach: 0.91, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.0},
	{Code: "FR", Name: "France", Subregion: WesternEurope, Population: 68_200_000, Pen2013: 0.82, Pen2024: 0.93, Freedom: 76, AdReach: 0.92, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.2},
	{Code: "NL", Name: "Netherlands", Subregion: WesternEurope, Population: 17_900_000, Pen2013: 0.94, Pen2024: 0.97, Freedom: 87, AdReach: 0.93, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.1},
	{Code: "BE", Name: "Belgium", Subregion: WesternEurope, Population: 11_800_000, Pen2013: 0.82, Pen2024: 0.95, Freedom: 83, AdReach: 0.92, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.3},
	{Code: "CH", Name: "Switzerland", Subregion: WesternEurope, Population: 8_900_000, Pen2013: 0.87, Pen2024: 0.96, Freedom: 89, AdReach: 0.93, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.2},
	{Code: "AT", Name: "Austria", Subregion: WesternEurope, Population: 9_100_000, Pen2013: 0.80, Pen2024: 0.95, Freedom: 81, AdReach: 0.92, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.2},
	{Code: "LU", Name: "Luxembourg", Subregion: WesternEurope, Population: 660_000, Pen2013: 0.94, Pen2024: 0.99, Freedom: 88, AdReach: 0.93, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.4},

	// ---- Australia and New Zealand ----
	{Code: "AU", Name: "Australia", Subregion: AustraliaNZ, Population: 26_600_000, Pen2013: 0.83, Pen2024: 0.94, Freedom: 76, AdReach: 0.92, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.5},
	{Code: "NZ", Name: "New Zealand", Subregion: AustraliaNZ, Population: 5_200_000, Pen2013: 0.83, Pen2024: 0.96, Freedom: 87, AdReach: 0.92, AdVolatility: 0.05, MLabIntegrated: true, HouseholdSize: 2.6},

	// ---- Microstates and small islands (the paper's Appendix B tail:
	// countries where tiny populations make estimates coarse) ----
	{Code: "BS", Name: "Bahamas", Subregion: Caribbean, Population: 410_000, Pen2013: 0.72, Pen2024: 0.94, Freedom: 80, AdReach: 0.88, AdVolatility: 0.10, MLabIntegrated: true, HouseholdSize: 3.4},
	{Code: "BB", Name: "Barbados", Subregion: Caribbean, Population: 280_000, Pen2013: 0.71, Pen2024: 0.82, Freedom: 82, AdReach: 0.88, AdVolatility: 0.10, MLabIntegrated: true, HouseholdSize: 2.9},
	{Code: "GY", Name: "Guyana", Subregion: SouthAmer, Population: 810_000, Pen2013: 0.33, Pen2024: 0.85, Freedom: 73, AdReach: 0.84, AdVolatility: 0.13, MLabIntegrated: true, HouseholdSize: 3.9},
	{Code: "SR", Name: "Suriname", Subregion: SouthAmer, Population: 620_000, Pen2013: 0.37, Pen2024: 0.76, Freedom: 72, AdReach: 0.83, AdVolatility: 0.13, MLabIntegrated: true, HouseholdSize: 3.9},
	{Code: "KM", Name: "Comoros", Subregion: EasternAfrica, Population: 850_000, Pen2013: 0.065, Pen2024: 0.35, Freedom: 48, AdReach: 0.60, AdVolatility: 0.22, MLabIntegrated: false, HouseholdSize: 5.4},
	{Code: "SC", Name: "Seychelles", Subregion: EasternAfrica, Population: 100_000, Pen2013: 0.50, Pen2024: 0.89, Freedom: 66, AdReach: 0.82, AdVolatility: 0.14, MLabIntegrated: true, HouseholdSize: 3.7},
	{Code: "CV", Name: "Cabo Verde", Subregion: OtherAfrica, Population: 600_000, Pen2013: 0.37, Pen2024: 0.70, Freedom: 78, AdReach: 0.80, AdVolatility: 0.14, MLabIntegrated: true, HouseholdSize: 4.2},
	{Code: "DJ", Name: "Djibouti", Subregion: EasternAfrica, Population: 1_100_000, Pen2013: 0.10, Pen2024: 0.69, Freedom: 26, AdReach: 0.45, AdVolatility: 0.22, MLabIntegrated: false, HouseholdSize: 6.0},
	{Code: "GM", Name: "Gambia", Subregion: OtherAfrica, Population: 2_700_000, Pen2013: 0.14, Pen2024: 0.58, Freedom: 56, AdReach: 0.68, AdVolatility: 0.18, MLabIntegrated: true, HouseholdSize: 7.9},
	{Code: "GQ", Name: "Equatorial Guinea", Subregion: OtherAfrica, Population: 1_700_000, Pen2013: 0.16, Pen2024: 0.54, Freedom: 22, AdReach: 0.45, AdVolatility: 0.24, MLabIntegrated: false, HouseholdSize: 5.0},
	{Code: "TD", Name: "Chad", Subregion: OtherAfrica, Population: 18_300_000, Pen2013: 0.023, Pen2024: 0.12, Freedom: 31, AdReach: 0.45, AdVolatility: 0.26, MLabIntegrated: false, HouseholdSize: 5.8},
	{Code: "NE", Name: "Niger", Subregion: OtherAfrica, Population: 27_200_000, Pen2013: 0.016, Pen2024: 0.17, Freedom: 46, AdReach: 0.52, AdVolatility: 0.24, MLabIntegrated: false, HouseholdSize: 6.0},
	{Code: "MW", Name: "Malawi", Subregion: EasternAfrica, Population: 20_900_000, Pen2013: 0.054, Pen2024: 0.25, Freedom: 57, AdReach: 0.62, AdVolatility: 0.20, MLabIntegrated: true, HouseholdSize: 4.5},
	{Code: "BI", Name: "Burundi", Subregion: EasternAfrica, Population: 13_200_000, Pen2013: 0.013, Pen2024: 0.11, Freedom: 23, AdReach: 0.48, AdVolatility: 0.25, MLabIntegrated: false, HouseholdSize: 4.8},
	{Code: "LS", Name: "Lesotho", Subregion: SouthernAfrica, Population: 2_300_000, Pen2013: 0.11, Pen2024: 0.48, Freedom: 64, AdReach: 0.76, AdVolatility: 0.15, MLabIntegrated: true, HouseholdSize: 3.4},
	{Code: "SZ", Name: "Eswatini", Subregion: SouthernAfrica, Population: 1_200_000, Pen2013: 0.25, Pen2024: 0.59, Freedom: 28, AdReach: 0.70, AdVolatility: 0.16, MLabIntegrated: false, HouseholdSize: 4.6},
	{Code: "MV", Name: "Maldives", Subregion: SouthernAsia, Population: 520_000, Pen2013: 0.44, Pen2024: 0.84, Freedom: 58, AdReach: 0.84, AdVolatility: 0.12, MLabIntegrated: true, HouseholdSize: 5.3},
	{Code: "BT", Name: "Bhutan", Subregion: SouthernAsia, Population: 790_000, Pen2013: 0.30, Pen2024: 0.86, Freedom: 61, AdReach: 0.80, AdVolatility: 0.13, MLabIntegrated: true, HouseholdSize: 4.6},
	{Code: "TL", Name: "Timor-Leste", Subregion: SouthEastAsia, Population: 1_400_000, Pen2013: 0.011, Pen2024: 0.39, Freedom: 65, AdReach: 0.65, AdVolatility: 0.19, MLabIntegrated: false, HouseholdSize: 5.3},
	{Code: "BN", Name: "Brunei Darussalam", Subregion: SouthEastAsia, Population: 450_000, Pen2013: 0.65, Pen2024: 0.98, Freedom: 35, AdReach: 0.85, AdVolatility: 0.09, MLabIntegrated: true, HouseholdSize: 5.0},
	{Code: "MT", Name: "Malta", Subregion: SouthernEurope, Population: 540_000, Pen2013: 0.69, Pen2024: 0.91, Freedom: 80, AdReach: 0.91, AdVolatility: 0.06, MLabIntegrated: true, HouseholdSize: 2.5},
	{Code: "CY", Name: "Cyprus", Subregion: SouthernEurope, Population: 1_260_000, Pen2013: 0.66, Pen2024: 0.91, Freedom: 77, AdReach: 0.90, AdVolatility: 0.07, MLabIntegrated: true, HouseholdSize: 2.8},
	{Code: "MC", Name: "Monaco", Subregion: WesternEurope, Population: 37_000, Pen2013: 0.91, Pen2024: 0.99, Freedom: 83, AdReach: 0.92, AdVolatility: 0.08, MLabIntegrated: true, HouseholdSize: 2.1},
	{Code: "LI", Name: "Liechtenstein", Subregion: WesternEurope, Population: 39_000, Pen2013: 0.94, Pen2024: 0.99, Freedom: 88, AdReach: 0.92, AdVolatility: 0.09, MLabIntegrated: true, HouseholdSize: 2.3},
	{Code: "AD", Name: "Andorra", Subregion: SouthernEurope, Population: 80_000, Pen2013: 0.94, Pen2024: 0.95, Freedom: 84, AdReach: 0.91, AdVolatility: 0.08, MLabIntegrated: true, HouseholdSize: 2.5},
	{Code: "SM", Name: "San Marino", Subregion: SouthernEurope, Population: 34_000, Pen2013: 0.51, Pen2024: 0.80, Freedom: 85, AdReach: 0.91, AdVolatility: 0.09, MLabIntegrated: true, HouseholdSize: 2.5},

	// ---- Oceania (Melanesia, Micronesia, Polynesia) ----
	{Code: "PG", Name: "Papua New Guinea", Subregion: OtherOceania, Population: 10_300_000, Pen2013: 0.06, Pen2024: 0.24, Freedom: 62, AdReach: 0.60, AdVolatility: 0.20, MLabIntegrated: false, HouseholdSize: 5.3},
	{Code: "FJ", Name: "Fiji", Subregion: OtherOceania, Population: 930_000, Pen2013: 0.37, Pen2024: 0.85, Freedom: 63, AdReach: 0.80, AdVolatility: 0.13, MLabIntegrated: true, HouseholdSize: 4.5},
	{Code: "VU", Name: "Vanuatu", Subregion: OtherOceania, Population: 330_000, Pen2013: 0.11, Pen2024: 0.66, Freedom: 70, AdReach: 0.05, AdVolatility: 0.32, MLabIntegrated: false, HouseholdSize: 4.8},
	{Code: "TO", Name: "Tonga", Subregion: OtherOceania, Population: 107_000, Pen2013: 0.35, Pen2024: 0.67, Freedom: 72, AdReach: 0.40, AdVolatility: 0.25, MLabIntegrated: false, HouseholdSize: 5.5},
	{Code: "WS", Name: "Samoa", Subregion: OtherOceania, Population: 220_000, Pen2013: 0.15, Pen2024: 0.64, Freedom: 74, AdReach: 0.65, AdVolatility: 0.18, MLabIntegrated: false, HouseholdSize: 6.8},
	{Code: "SB", Name: "Solomon Islands", Subregion: OtherOceania, Population: 720_000, Pen2013: 0.08, Pen2024: 0.42, Freedom: 68, AdReach: 0.55, AdVolatility: 0.22, MLabIntegrated: false, HouseholdSize: 5.5},
	{Code: "PW", Name: "Palau", Subregion: OtherOceania, Population: 18_000, Pen2013: 0.31, Pen2024: 0.86, Freedom: 80, AdReach: 0.75, AdVolatility: 0.18, MLabIntegrated: false, HouseholdSize: 4.0},
	{Code: "NR", Name: "Nauru", Subregion: OtherOceania, Population: 12_000, Pen2013: 0.43, Pen2024: 0.80, Freedom: 70, AdReach: 0.55, AdVolatility: 0.25, MLabIntegrated: false, HouseholdSize: 5.9},
	{Code: "TV", Name: "Tuvalu", Subregion: OtherOceania, Population: 11_000, Pen2013: 0.37, Pen2024: 0.70, Freedom: 75, AdReach: 0.40, AdVolatility: 0.30, MLabIntegrated: false, HouseholdSize: 6.0},
	{Code: "KI", Name: "Kiribati", Subregion: OtherOceania, Population: 130_000, Pen2013: 0.11, Pen2024: 0.54, Freedom: 72, AdReach: 0.50, AdVolatility: 0.26, MLabIntegrated: false, HouseholdSize: 6.4},
	{Code: "MH", Name: "Marshall Islands", Subregion: OtherOceania, Population: 42_000, Pen2013: 0.16, Pen2024: 0.62, Freedom: 78, AdReach: 0.60, AdVolatility: 0.24, MLabIntegrated: false, HouseholdSize: 7.2},
	{Code: "FM", Name: "Micronesia, Federated States of", Subregion: OtherOceania, Population: 115_000, Pen2013: 0.28, Pen2024: 0.41, Freedom: 76, AdReach: 0.58, AdVolatility: 0.24, MLabIntegrated: false, HouseholdSize: 6.7},
}

// byCode is built once at init from the registry.
var byCode = func() map[string]Country {
	m := make(map[string]Country, len(registry))
	for _, c := range registry {
		m[c.Code] = c
	}
	return m
}()

// All returns a copy of the full registry sorted by country code.
func All() []Country {
	out := append([]Country(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// ByCode looks up a country by its ISO code.
func ByCode(code string) (Country, bool) {
	c, ok := byCode[code]
	return c, ok
}
