package scenario

import "bytes"

// Parse decodes one scenario from a JSON byte slice: the loader entry
// point the fuzz and loader tests drive.
func Parse(data []byte) (*Scenario, error) {
	return Decode(bytes.NewReader(data))
}
