// Package power describes the HydroWatch platform's energy sinks and power
// states (Table 1 of the paper) and models the board's aggregate current
// draw as those states change.
//
// Two draw tables exist side by side:
//
//   - NominalDraws: the datasheet values printed in Table 1.
//   - CalibratedDraws: the values the paper actually measured on its board
//     (Tables 2 and 3). The simulation uses these as physical ground truth,
//     so nominal-vs-measured discrepancies survive into the reproduction
//     exactly as they did on real hardware.
//
// Both builders return a fresh map on every call. A Board reads neither
// map: it reads a DrawGrid, the same values compiled to a dense
// (resource, state) grid. Calibrated is CalibratedDraws compiled once at
// package init; every simulated node's board shares that one immutable
// grid, so assembling a node copies no table.
package power

import (
	"repro/internal/core"
	"repro/internal/units"
)

// Resource identifiers for the platform's energy sinks. ResBaseline is not a
// named sink in Table 1; it models the board's always-on draw (quiescent
// regulator, supply network, sleeping MCU) which the paper's regressions
// absorb into the constant term.
const (
	ResCPU core.ResourceID = iota
	ResVRef
	ResADC
	ResDAC
	ResIntFlash
	ResTempSensor
	ResComparator
	ResSupply
	ResRadioReg
	ResRadioBatMon
	ResRadioCtl
	ResRadioRx
	ResRadioTx
	ResFlash
	ResLED0
	ResLED1
	ResLED2
	ResSensor
	ResBaseline
	// NumResources is the number of defined platform resources.
	NumResources
)

// CPU power states. State 0 is the platform's default sleep mode (LPM3),
// chosen as the baseline so its draw folds into the regression constant,
// matching how the paper's Blink analysis treats the CPU as two-state
// (active/idle).
const (
	CPUSleep  core.PowerState = 0 // LPM3
	CPUActive core.PowerState = 1
	CPULPM0   core.PowerState = 2
	CPULPM1   core.PowerState = 3
	CPULPM2   core.PowerState = 4
	CPULPM4   core.PowerState = 5
)

// Two-state sinks (LEDs, voltage reference, comparator, temperature sensor,
// supply supervisor, battery monitor, SHT11).
const (
	StateOff core.PowerState = 0
	StateOn  core.PowerState = 1
)

// ADC states.
const (
	ADCIdle       core.PowerState = 0
	ADCConverting core.PowerState = 1
)

// DAC states.
const (
	DACOff   core.PowerState = 0
	DACConv2 core.PowerState = 1
	DACConv5 core.PowerState = 2
	DACConv7 core.PowerState = 3
)

// Internal (MCU) flash states.
const (
	IntFlashIdle    core.PowerState = 0
	IntFlashProgram core.PowerState = 1
	IntFlashErase   core.PowerState = 2
)

// Radio regulator states.
const (
	RadioRegOff core.PowerState = 0
	RadioRegOn  core.PowerState = 1
	RadioRegPD  core.PowerState = 2
)

// Radio control path states.
const (
	RadioCtlOff  core.PowerState = 0
	RadioCtlIdle core.PowerState = 1
)

// Radio receive path states.
const (
	RadioRxOff    core.PowerState = 0
	RadioRxListen core.PowerState = 1
)

// Radio transmit path states: off, then one state per output power setting.
const (
	RadioTxOff core.PowerState = iota
	RadioTx0dBm
	RadioTxM1dBm
	RadioTxM3dBm
	RadioTxM5dBm
	RadioTxM7dBm
	RadioTxM10dBm
	RadioTxM15dBm
	RadioTxM25dBm
)

// External NOR flash states.
const (
	FlashPowerDown core.PowerState = 0
	FlashStandby   core.PowerState = 1
	FlashRead      core.PowerState = 2
	FlashWrite     core.PowerState = 3
	FlashErase     core.PowerState = 4
)

// SHT11-like sensor states.
const (
	SensorIdle   core.PowerState = 0
	SensorSample core.PowerState = 1
)

// StateInfo describes one power state of a sink.
type StateInfo struct {
	State   core.PowerState
	Name    string
	Nominal units.MicroAmps // datasheet draw at 3 V, 1 MHz
}

// SinkInfo describes one energy sink with its power states.
type SinkInfo struct {
	Res    core.ResourceID
	Name   string
	Group  string // "Microcontroller", "Radio", "Flash", "LEDs", "Sensor", "Board"
	States []StateInfo
}

// Platform returns the full Table 1 inventory: every energy sink, its power
// states, and the nominal current draws at 3 V supply and 1 MHz clock.
func Platform() []SinkInfo {
	return []SinkInfo{
		{ResCPU, "CPU", "Microcontroller", []StateInfo{
			{CPUActive, "ACTIVE", 500},
			{CPULPM0, "LPM0", 75},
			{CPULPM1, "LPM1", 75}, // assumed, as in the paper's footnote
			{CPULPM2, "LPM2", 17},
			{CPUSleep, "LPM3", 2.6},
			{CPULPM4, "LPM4", 0.2},
		}},
		{ResVRef, "Voltage Reference", "Microcontroller", []StateInfo{
			{StateOn, "ON", 500},
		}},
		{ResADC, "ADC", "Microcontroller", []StateInfo{
			{ADCConverting, "CONVERTING", 800},
		}},
		{ResDAC, "DAC", "Microcontroller", []StateInfo{
			{DACConv2, "CONVERTING-2", 50},
			{DACConv5, "CONVERTING-5", 200},
			{DACConv7, "CONVERTING-7", 700},
		}},
		{ResIntFlash, "Internal Flash", "Microcontroller", []StateInfo{
			{IntFlashProgram, "PROGRAM", 3000},
			{IntFlashErase, "ERASE", 3000},
		}},
		{ResTempSensor, "Temperature Sensor", "Microcontroller", []StateInfo{
			{StateOn, "SAMPLE", 60},
		}},
		{ResComparator, "Analog Comparator", "Microcontroller", []StateInfo{
			{StateOn, "COMPARE", 45},
		}},
		{ResSupply, "Supply Supervisor", "Microcontroller", []StateInfo{
			{StateOn, "ON", 15},
		}},
		{ResRadioReg, "Regulator", "Radio", []StateInfo{
			{RadioRegOff, "OFF", 1},
			{RadioRegOn, "ON", 22},
			{RadioRegPD, "POWER DOWN", 20},
		}},
		{ResRadioBatMon, "Battery Monitor", "Radio", []StateInfo{
			{StateOn, "ENABLED", 30},
		}},
		{ResRadioCtl, "Control Path", "Radio", []StateInfo{
			{RadioCtlIdle, "IDLE", 426},
		}},
		{ResRadioRx, "Rx Data Path", "Radio", []StateInfo{
			{RadioRxListen, "RX (LISTEN)", 19700},
		}},
		{ResRadioTx, "Tx Data Path", "Radio", []StateInfo{
			{RadioTx0dBm, "TX (+0 dBm)", 17400},
			{RadioTxM1dBm, "TX (-1 dBm)", 16500},
			{RadioTxM3dBm, "TX (-3 dBm)", 15200},
			{RadioTxM5dBm, "TX (-5 dBm)", 13900},
			{RadioTxM7dBm, "TX (-7 dBm)", 12500},
			{RadioTxM10dBm, "TX (-10 dBm)", 11200},
			{RadioTxM15dBm, "TX (-15 dBm)", 9900},
			{RadioTxM25dBm, "TX (-25 dBm)", 8500},
		}},
		{ResFlash, "Flash", "Flash", []StateInfo{
			{FlashPowerDown, "POWER DOWN", 9},
			{FlashStandby, "STANDBY", 25},
			{FlashRead, "READ", 7000},
			{FlashWrite, "WRITE", 12000},
			{FlashErase, "ERASE", 12000},
		}},
		{ResLED0, "LED0 (Red)", "LEDs", []StateInfo{
			{StateOn, "ON", 4300},
		}},
		{ResLED1, "LED1 (Green)", "LEDs", []StateInfo{
			{StateOn, "ON", 3700},
		}},
		{ResLED2, "LED2 (Blue)", "LEDs", []StateInfo{
			{StateOn, "ON", 1700},
		}},
		{ResSensor, "SHT11", "Sensor", []StateInfo{
			{SensorSample, "SAMPLE", 550},
		}},
	}
}

// ResourceNames returns the short names used in timelines and tables,
// indexed by resource id.
func ResourceNames() [NumResources]string {
	return [NumResources]string{
		ResCPU:         "CPU",
		ResVRef:        "VRef",
		ResADC:         "ADC",
		ResDAC:         "DAC",
		ResIntFlash:    "IntFlash",
		ResTempSensor:  "TempSensor",
		ResComparator:  "Comparator",
		ResSupply:      "Supply",
		ResRadioReg:    "RadioReg",
		ResRadioBatMon: "RadioBatMon",
		ResRadioCtl:    "RadioCtl",
		ResRadioRx:     "RadioRx",
		ResRadioTx:     "RadioTx",
		ResFlash:       "Flash",
		ResLED0:        "Led0",
		ResLED1:        "Led1",
		ResLED2:        "Led2",
		ResSensor:      "SHT11",
		ResBaseline:    "Board",
	}
}
