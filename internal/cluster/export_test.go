package cluster

// PoolNodes exports poolNodes to the package's external tests.
const PoolNodes = poolNodes
