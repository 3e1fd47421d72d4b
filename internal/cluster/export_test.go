package cluster

// MinFanOutPairs lets the external tests size a community whose
// clustering takes the fan-out path.
const MinFanOutPairs = minFanOutPairs
