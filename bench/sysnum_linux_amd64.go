package main

// sendmmsg postdates the syscall package's API freeze; 307 is
// __NR_sendmmsg on linux/amd64.
const sysSENDMMSG = 307
