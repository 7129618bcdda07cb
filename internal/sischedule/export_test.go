package sischedule

// OracleScheduleSITest exposes the from-scratch oracle to the external
// test package, which runs it over the scenario generator's instances.
var OracleScheduleSITest = oracleScheduleSITest
