/**
 * @file
 * Compression laboratory: run every compressor in the library on
 * the same synthetic gradient matrices and compare reconstruction
 * error, payload size, and wall-clock cost of our actual kernels --
 * the experiment one runs before picking a compressor for a new
 * traffic class, mirroring the paper's Section 2.3 survey.
 *
 * Also demonstrates error feedback: the same lossy compressor's
 * *accumulated* error stays bounded once residuals are fed back.
 *
 * Usage: compression_lab [--rows N] [--cols N] [--steps N]
 */

#include <chrono>
#include <cstdio>

#include "compress/compressor.hh"
#include "compress/error_feedback.hh"
#include "tensor/matmul.hh"
#include "util/cli.hh"
#include "util/random.hh"
#include "util/table_printer.hh"

using namespace optimus;

namespace
{

/** Synthetic "gradient": low-rank signal + noise, like real ones. */
Tensor
syntheticGradient(int64_t rows, int64_t cols, Rng &rng)
{
    Tensor a = Tensor::randn({rows, 4}, rng);
    Tensor b = Tensor::randn({4, cols}, rng);
    Tensor grad = matmul(a, b);
    Tensor noise = Tensor::randn({rows, cols}, rng, 0.0f, 0.3f);
    grad.add(noise);
    return grad;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const int64_t rows = args.getInt("rows", 256);
    const int64_t cols = args.getInt("cols", 128);
    const int steps = static_cast<int>(args.getInt("steps", 20));

    Rng rng(7);
    std::printf("compressor shoot-out on [%lld x %lld] synthetic "
                "gradients (%d steps each)\n\n",
                static_cast<long long>(rows),
                static_cast<long long>(cols), steps);

    std::vector<CompressorSpec> specs;
    for (int rank : {2, 8, 32}) {
        CompressorSpec spec;
        spec.kind = CompressorKind::PowerSgd;
        spec.rank = rank;
        specs.push_back(spec);
    }
    for (double fraction : {0.01, 0.1}) {
        CompressorSpec spec;
        spec.kind = CompressorKind::TopK;
        spec.topkFraction = fraction;
        specs.push_back(spec);
    }
    specs.push_back({CompressorKind::Ternary, 0, 0.0, 1});
    specs.push_back({CompressorKind::OneBit, 0, 0.0, 1});

    TablePrinter table({"Compressor", "Payload", "Rel. error",
                        "Rel. error (EF)", "us/msg"});
    const int64_t raw_bytes = 4 * rows * cols;
    for (const auto &spec : specs) {
        // Plain channel.
        auto plain = makeCompressor(spec);
        // Error-feedback channel: judge the error of the *sum* of
        // deliveries against the sum of inputs (what the optimizer
        // integrates).
        auto lossy = makeCompressor(spec);
        ErrorFeedback ef;

        double err_sum = 0.0;
        Tensor input_total({rows, cols});
        Tensor ef_total({rows, cols});
        int64_t payload = 0;
        double micros = 0.0;
        for (int step = 0; step < steps; ++step) {
            Tensor grad = syntheticGradient(rows, cols, rng);
            Tensor out;
            const auto t0 = std::chrono::steady_clock::now();
            payload = plain->compress(grad, out);
            const auto t1 = std::chrono::steady_clock::now();
            micros +=
                std::chrono::duration<double, std::micro>(t1 - t0)
                    .count();
            err_sum += sub(grad, out).norm() / grad.norm();

            Tensor ef_out;
            lossy->compress(ef.fold(grad), ef_out);
            ef.update(ef_out);
            input_total.add(grad);
            ef_total.add(ef_out);
        }
        const double ef_err =
            sub(input_total, ef_total).norm() / input_total.norm();
        char payload_str[32];
        std::snprintf(payload_str, sizeof(payload_str), "%.1f%%",
                      100.0 * payload / raw_bytes);
        table.addRow({spec.describe(), payload_str,
                      TablePrinter::fmt(err_sum / steps, 3),
                      TablePrinter::fmt(ef_err, 3),
                      TablePrinter::fmt(micros / steps, 1)});
    }
    table.print();

    std::printf(
        "\nNotes: 'Rel. error (EF)' is the error of the integrated "
        "stream with\nerror feedback -- residuals re-enter later "
        "messages, so the integral is\nfar more accurate than any "
        "single message (the LEP principle).\n");
    return 0;
}
