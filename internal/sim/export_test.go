package sim

// encodeUnchecked encodes st like EncodeState but carries on past an
// unordered key, writing its gap modulo 2^64, so tests can hand the
// decoder inputs EncodeState refuses to produce.
func encodeUnchecked(st *MachineState) []byte {
	e := stateEncoder{b: []byte(stateMagic)}
	e.uvarint(uint64(st.Version))
	e.machine(st)
	return e.b
}

// ForgedStates returns the unchecked encodings of every stateForgeries
// entry that finds something to forge in the encoded state b, for the
// decoder fuzzer's seed corpus.
func ForgedStates(b []byte) ([][]byte, error) {
	var out [][]byte
	for _, f := range stateForgeries {
		st, err := DecodeState(b)
		if err != nil {
			return nil, err
		}
		if f.forge(st) {
			out = append(out, encodeUnchecked(st))
		}
	}
	return out, nil
}
