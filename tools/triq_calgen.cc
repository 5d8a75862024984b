/**
 * @file
 * triq-calgen — calibration snapshot generator.
 *
 * Emits a device's calibration for a given day (or its noise-unaware
 * average) in the text format Calibration::load accepts, mirroring the
 * daily data feeds the paper consumed from the vendors. Useful for
 * pinning an experiment to a snapshot, editing error rates by hand, or
 * feeding external calibration data into triqc via --calibration.
 *
 * Usage:
 *   triq-calgen -d IBMQ14 --day 5            # to stdout
 *   triq-calgen -d UMDTI --average -o cal.txt
 */

#include <fstream>
#include <iostream>

#include "common/flags.hh"
#include "common/logging.hh"
#include "device/machines.hh"

using namespace triq;

int
main(int argc, char **argv)
{
    try {
        std::string device = "IBMQ5";
        std::string output;
        int day = 0;
        bool average = false;
        Flags("triq-calgen",
              "usage: triq-calgen -d DEVICE [--day N | --average] "
              "[-o FILE]\n")
            .add("--device", device)
            .alias("-d")
            .add("--day", day)
            .add("--average", average)
            .add("-o", output)
            .parse(argc, argv);
        Device dev = [&] {
            for (auto &d : allStudyDevices())
                if (d.name() == device)
                    return d;
            fatal("triq-calgen: unknown device '", device, "'");
        }();
        Calibration calib =
            average ? dev.averageCalibration() : dev.calibrate(day);
        if (output.empty()) {
            calib.save(std::cout);
        } else {
            std::ofstream out(output);
            if (!out)
                fatal("triq-calgen: cannot write '", output, "'");
            calib.save(out);
        }
        return 0;
    } catch (const FatalError &) {
        return 1; // message already printed by fatal()
    } catch (const PanicError &) {
        return 2; // internal invariant violation, printed by panic()
    } catch (const std::exception &e) {
        std::cerr << "triq-calgen: internal error: " << e.what() << "\n";
        return 2;
    } catch (...) {
        std::cerr << "triq-calgen: internal error: unknown exception\n";
        return 2;
    }
}
