package main

// sendmmsg postdates the syscall package's API freeze; 269 is
// __NR_sendmmsg on linux/arm64.
const sysSENDMMSG = 269
