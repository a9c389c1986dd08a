"""Truncated cylindrical Wiener process and the momentum diffusion operator.

The driving noise is a finite family of independent scalar Brownian motions
``W_k``; mode ``k`` forces the momentum through a coefficient field
``G_k(rho, m)``.  The paper allows any Lipschitz ``G_k``; every run here
uses one affine family,

    ``G_k(rho, m) = rho K_k e_{k mod N} + L_k m``  with real ``K_k, L_k``.

The density factor acts along a fixed unit axis per mode (axes cycle with
``k``), which keeps constants solenoidal and makes the sub-linearity
constant ``2 sum(K_k^2 + L_k^2)`` exact.

Brownian increments come from counter-based Philox streams keyed by
``(master seed, member)`` with the step index in the counter, so every path
is a pure function of its key and is independent of scheduling order.  A
run draws one member's path once, as an ``(n_steps, modes)`` increment
table from :meth:`WienerPath.table` (an ensemble's paths from
:func:`member_tables`), and hands each row to every stepper of that step.
Runs at a coarser step on the same path use :func:`coarsen`, which sums
consecutive fine rows, so solutions compared pathwise are driven by one
Wiener process.

Row ``s`` of member ``m`` is numpy's ``standard_normal(modes)`` from a
Philox generator keyed ``(seed, m)`` at counter ``(0, 0, 0, s)``, times
``sqrt(dt)``, computed here bit for bit and without ``numpy.random``:
Philox4x64-10 (Salmon et al. 2011) decoded through numpy's ziggurat
(Marsaglia & Tsang 2000), whose tables are embedded below, and through its
wedge and tail tests with the same libm calls.  A table computes the first
Philox block of every ``(member, step)`` key in one vectorized pass and
decodes each row whose words the ziggurat accepts at once.  A row with a
word it does not accept at once (about 1.5% of one-mode rows), and every
row of more than 4 modes, is drawn by ``WienerPath.increments``, which
walks the row's words and steps in Python only at each rejected word.
"""

from __future__ import annotations

import binascii
import math
from dataclasses import dataclass

import numpy as np


class NoiseError(ValueError):
    pass


@dataclass(frozen=True)
class NoiseModel:
    K: tuple[float, ...] = ()
    L: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "K", tuple(float(k) for k in self.K))
        object.__setattr__(self, "L", tuple(float(l) for l in self.L))
        if len(self.K) != len(self.L):
            raise NoiseError("K and L must have equal length")

    @property
    def modes(self) -> int:
        return len(self.K)

    @property
    def alpha_sum(self) -> float:
        """Sum of per-mode Lipschitz constants (finite by truncation)."""
        return float(sum(abs(k) + abs(l) for k, l in zip(self.K, self.L)))

    def apply_mode(self, mode: int, grid, rho: np.ndarray, mom: np.ndarray) -> np.ndarray:
        """Coefficient field ``G_k(rho, m)`` for one mode (of one state or a batch)."""
        if not 0 <= mode < self.modes:
            raise NoiseError(f"mode {mode} out of range [0, {self.modes})")
        out = self.L[mode] * mom
        out[grid.comp(mode % grid.dim)] += self.K[mode] * rho
        return out

    def momentum_kick(self, grid, rho: np.ndarray, mom: np.ndarray,
                      dW: np.ndarray) -> np.ndarray:
        """``sum_k G_k(rho, m) dW_k`` in closed form.

        ``dW`` is one step's ``(K,)`` increments, or ``(M, K)`` for a batch.
        ``rho`` and ``mom`` may be fields or their spectra, since the kick is
        linear in them.  Its callers: the explicit and IMEX steps of
        :mod:`torusgas.dynamics` and :func:`torusgas.euler.step_em_euler`
        (at unit density).  The energy ledger's martingale ``int u . kick``
        reduces the same sum without forming the kick (see
        :meth:`torusgas.ledger.LedgerAccumulator.step_increments`).
        """
        if self.modes == 0:
            return np.zeros_like(mom)
        per_cell = dW.shape[:-1] + (1,) * grid.dim  # a member's value in every cell
        # sum_k L_k dW_k in mode order, the same per member as alone
        ldw = sum(l * dW[..., k] for k, l in enumerate(self.L))
        out = np.reshape(ldw, per_cell)[grid.comp(None)] * mom
        for mode in range(self.modes):
            if self.K[mode] != 0.0:
                out[grid.comp(mode % grid.dim)] += (
                    np.reshape(self.K[mode] * dW[..., mode], per_cell) * rho)
        return out

    def ito_density(self, grid, rho: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Pointwise ``sum_k rho |K_k e_{k mod N} + L_k u|^2`` of a density and velocity.

        ``verify``'s domination audit reads it.  The energy ledger
        integrates the same density from reductions of ``rho``, ``m`` and
        ``m . u`` instead, without forming it.
        """
        c = -grid.dim - 1  # the component axis
        out = np.zeros_like(rho)
        u2 = np.sum(u * u, axis=c)
        for mode in range(self.modes):
            k, l = self.K[mode], self.L[mode]
            out += k * k + 2.0 * k * l * u[grid.comp(mode % grid.dim)] + l * l * u2
        return rho * out


# --------------------------------------------------------------------------
# Wiener increments
# --------------------------------------------------------------------------


_U64 = 0xFFFFFFFFFFFFFFFF
_LO32 = np.uint64(0xFFFFFFFF)
_MANTISSA = np.uint64((1 << 52) - 1)
# Philox4x64 round multipliers and Weyl key increments (Salmon et al. 2011)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

# numpy's 256-layer ziggurat for the standard normal (Marsaglia & Tsang 2000;
# numpy's ziggurat_constants.h): acceptance bounds ki (uint64), layer widths
# wi and layer densities fi (float64), each little-endian.  Every bit of them
# decides draws, so they are copied, not recomputed; the tests check them
# against the running numpy.
_TABLES_BASE64 = (
    "au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvvDgCqRPoKRxkPABjL"
    "/2HtNw8AXCVhlUZPDwCWoxvkpWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM8YYPAN4lg1emjw8A2tBNxySXDwAJ9dsH"
    "qZ0PAHT6gfVgow8A+Etb3m+oDwDcVNNg8awPAA+5GGf7sA8AxnRTjZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9"
    "DwBXbP9gMMAPAEiiNxCCwg8A0VvieqbEDwAx7nqXosYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLpzMsPAMQ5+BJNzQ8A"
    "meyPTbXODwAwyR2/B9APAObE1k1G0Q8AUPTiqHLSDwAeyfBPjtMPAHi0kJma1A8AUw+SuJjVDwDsmY7AidYPADLo"
    "yKlu1w8A6Ah7VEjYDwCMLK2LF9kPANKtpwfd2Q8AjF4QcJnaDwAgLsBdTdsPAND8W1z52w8AfZq5653cDwCdchiB"
    "O90PAJAvNIjS3Q8AZJ82ZGPeDwBOUY1w7t4PAC60pgF03w8AQO2ZZfTfDwDyJLzkb+APAFiiJcLm4A8ATLgoPFnh"
    "DwCZP7yMx+EPAKoc2+kx4g8AkRvahZjiDwCGQbWP++IPAEqNVTNb4w8AKgDQmbfjDwB/rZ7pEOQPADR31EZn5A8A"
    "XAlM07rkDwAkldKuC+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ2W825g8AeNXGdXvmDwCqER5mvuYPAPL0"
    "5VX/5g8AAqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3jfDnDwCM8FOQKOgPADoXNfte6A8AZAiE3JPoDwC8zvBB"
    "x+gPAPZOfTj56A8AHZuHzCnpDwDqiNMJWekPAKKak/uG6Q8AZkhxrLPpDwDVtpQm3+kPAHzmq3MJ6g8ApGbxnDLq"
    "DwAslTKrWuoPABp01aaB6g8A8Bzel6fqDwAg2fOFzOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A"
    "+oTi9HbrDwAUIOZflusPAHydz/S06w8A0En0uNLrDwA+Lm6x7+sPAOi9HuML7A8AFVqxUifsDwDTr50EQuwPAJbx"
    "Kf1b7A8A9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE0+wPALPIiHTp7A8At5F/xP7sDwAohTV3"
    "E+0PAANJhI8n7Q8ATC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCCqeRXg+0PAMgspAaU7Q8ABLeFK6Tt"
    "DwC0anTIs+0PAFJmQd/C7Q8AUm6kcdHtDwDTijyB3+0PAICZkA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa2cAS7g8A"
    "4AaQVx7uDwAkZUtzKe4PALzkChU07g8APJu4PT7uDwD0ginuR+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGX"
    "WAtq7g8Aegc+bHHuDwCCezJYeO4PALoGe89+7g8AskpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A2iV+IJTuDwDqKahR"
    "mO4PAFxIEw6c7g8A9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8AcS38aKbuDwD61m7Xp+4PAAr6BM6o7g8AOzPoS6nu"
    "DwAQZClQqe4PAF4HwNmo7g8AVHaJ56fuDwAkHUh4pu4PAIOeooqk7g8A2uQiHaLuDwAkIDUun+4PAC6vJryb7g8A"
    "5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8Aepw2rojuDwD9PX+Ogu4PAIi4p9577g8A/zf/m3TuDwBevanDbO4PAH4A"
    "nlJk7g8AiCijRVvuDwC2V06ZUe4PAM8GAEpH7g8AUCzhUzzuDwDYKuCyMO4PAAWCrWIk7g8AWjy4XhfuDwBHFCqi"
    "Ce4PAMxJ4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5zg7L7Q8A9CwEZLntDwDJOOncpu0PAI3pN3KT7Q8ANqg4HH/t"
    "DwArwLnSae0PAACuBo1T7Q8AIqTeQTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/sDwC4tw4Q1OwPALRulQi37A8A"
    "wTAStpjsDwB4qQ0KeewPAP4xD/VX7A8AYsmGZjXsDwA1s7RMEewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKF"
    "yeFv6w8Anh+t00LrDwBLLQuwE+sPAOkCGlni6g8AVyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATqDwA7Vi/W"
    "xekPAKRHqTuE6Q8AKEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2BOgPAMAzgkir5w8ApWofdUzn"
    "DwACoioQ6OYPANirtqB95g8AfjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8AWPQ21IvkDwA3Hv2/+eMPAJyx7jVd4w8A"
    "/uQvErXiDwBXVZkDAOIPABSDeII84Q8AsGfuxGjgDwCqcSuwgt8PAKr+fsWH3g8A/TvGCXXdDwATvynlRtwPAIIC"
    "Lvj42g8Adbqy4YXZDwAEz0jv5tcPAAtlva0T1g8AEvDiSQHUDwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u"
    "0scPAO0iHi8rww8AOrjAgWW9DwA0VADEBrYPAHQoKlhArA8AmEUBHpeeDwD8HaRI+okPACww8PfFZg8AShwzS1oa"
    "DwB52RV4O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8vNBMLgwjmjz3YTgvTQCcPHRydFovrJ08"
    "w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI89ZFXwD88ozwvsaLBnr2jPFWb"
    "/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mumPHAFAJKi0qY8pvhG09o2pzx3KrMQ"
    "rZinPEP1Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k86h4sgkdjqTxGxTiOybmpPCynpNzMDqo8Wc13bWdi"
    "qjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8"
    "SLeADp8erTwQH+QpnWetPMO4IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj2"
    "2FT2Ua88rteHnm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyE"
    "fa+wPH/MS2Y9z7A8awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqnibE8iG3uURuo"
    "sTzLKvj4ZsaxPC7U4JOL5LE8n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRbsjx/0x1mKnmyPBvXGceBlrI8"
    "2i64YruzsjxTuOFi2NCyPI6py+jZ7bI810huDcEKszwwufThjiezPKFeJnBERLM81VLKuuJgszxqWAW+an2zPGSy"
    "sm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae"
    "33q0PC+PSDK6lrQ8XUEC9oeytDzcEbOsSc60PAWmOBYA6rQ8YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndY"
    "tTx4X1UOAHS1PBSFDsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8OF6fyE/9tTzDH6NguBi2PKKwougdNLY8"
    "Cya3BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8VPhhMcTztjzraIv3Jw+3PMYU"
    "aVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NMz7c8595zjNbqtzwf6oak"
    "Zwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQuDxDwAWSjqy4PJwMoatlyLg8J2pEUUnk"
    "uDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8"
    "EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71"
    "Ws14yLo8NrOL4bTlujwaocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXb"
    "a7W7PKLALmuT07s8g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2vY+q"
    "vDyQ1jvH4cm8PDfgaDBe6bw8bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0c4m9PHBuIJkJqr08"
    "Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb489kbqxHQuvjyI0cGZHFC+PCX+ly8Acr48Cr8qSyGUvjwIb/fAgba+PDqn"
    "EHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88aAHJIF9mvzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjB"
    "Wfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTAPMf1Pk7aR8A8frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeW"
    "wDzEwHF1zarAPEjU7tE9v8A8MD2qNOrTwDyTZRHP1OjAPLafpu///cA8QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8"
    "Oy5gSGRVwTzz7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8Oa7k++vhwTwB2eLCn/rBPIHM"
    "BJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8l9uWMdTQwjz1eKmx"
    "De7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5wdazDPKYEF7Mnz8M8dfRgqtvy"
    "wzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51zt8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8"
    "G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kWxjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMG"
    "CVaVecc8jM7W9C3Uxzw08ikFAznIPBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmC"
    "tDvNPAAAAAAAAPA/h/B5yWpE7z8VqWxbVLfuP3fwJ+ARP+4/ld4Ep2/T7T/yvFcGknDtP9wZoXhJFO0/6y2nqDO9"
    "7D9/eKnOXmrsP+q67tkcG+w/gtzhTuvO6z9S9Y86ZYXrPxDdNII6Pus/ouhsPyr56j8EJXrx/rXqP+HJUNWLdOo/"
    "D6/1/ao06j/YH2XuO/bpP4EGJI0iuek/wXphV0Z96T9HehvCkULpP09xMb3xCOk/qArmT1XQ6D8C37pIrZjoP6y8"
    "N/zrYeg/bs9WDwUs6D/L4iBL7fbnP1honHeawuc/1bCgPAOP5z9W2HAHH1znPxJtP/TlKec/7nrqulD45j+JWmOe"
    "WMfmPyo7UV73luY/I+OSKidn5j8YDFWY4jfmP2UmgJgkCeY/av9Kb+ja5T+JXMisKa3lP4+NTCbkf+U/Rp6N8BNT"
    "5T/VbGVatSblP2e2IOjE+uQ/wE5JTz/P5D94UtxyIaTkPxJQ319oeeQ/eTZJShFP5D/jXzWKGSXkP4JbWJl+++M/"
    "ozGvED7S4z8OzWKmVanjP9UA2ivDgOM/6VD1i4RY4z81OnDJlzDjP+84ZP36COM/7jvqVazh4j9KldcUqrriPxXN"
    "k47yk+I/7QQFKYRt4j+E25BaXUfiP/L3L6l8IeI/IJaSqeD74T9pmVT+h9bhPxHRP1dxseE/UDybcJuM4T/aOYYS"
    "BWjhP5ypXhCtQ+E/OB8xSJIf4T8TWTKis/vgP6BCQRAQ2OA/rtlwjaa04D+BXZkddpHgPzY88Mx9buA/Lj+mr7xL"
    "4D8qgovhMSngP8TKuIXcBuA/ob17jHfJ3z/KAKmnnYXfP/N6L8spQt8/lY9+cRr/3j9UH70gbrzeP8XDTmojet4/"
    "hZtf6jg43j8JOnZHrfbdP7FWCzJ/td0/M94mZK103T+AEAKhNjTdP21brrQZ9Nw/SKjAc1W03D/H1wC76HTcP7gs"
    "HW/SNdw/F2phfBH32z+RbXHWpLjbPxsTB3iLets/yjGzYsQ82z9ShaGeTv/aP55aXzopwto/gNikSlOF2j9NwCDq"
    "y0jaPz6ERjmSDNo/35MeXqXQ2T/GwBiEBJXZP5Of4NuuWdk/F8szm6Me2T8V8bn84ePYP4iR3j9pqdg/tlqsqDhv"
    "2D/ZDap/TzXYPxHZuBGt+9c/sBT0r1DC1z/rUpKvOYnXP+2xx2lnUNc/TGGpO9kX1z+qTBKGjt/WPyHeiK2Gp9Y/"
    "4sslGsFv1j8V5Xs3PTjWP8jSgHT6ANY/RMJ2Q/jJ1T++7tYZNpPVPwABPXCzXNU/7TtTwm8m1T+Sbb+OavDUP6Kc"
    "EFejutQ/1GqtnxmF1D/+JMPvzE/UPxl6NdG8GtQ/29KO0Ojl0z+uQ/F8ULHTP3kTCGjzfNM/ntH5JdFI0z8v9lpN"
    "6RTTP2YHIXc74dI/3T+WPset0j8esU1BjHrSP4neFx+KR9I/nsz3ecAU0j8WgRj2LuLRP1DwwjnVr9E/6FRU7bJ9"
    "0T9n7jS7x0vRPyMkz08TGtE/xAmHWZXo0D/aQrKITbfQPzZDkI87htA/2elCIl9V0D9+dMf2tyTQP8WT34mL6M8/"
    "NTK4jBCIzz/SmOls/ifPP0ScyaRUyM4/3TwoshJpzj+EcUUWOArOPwqQx1XEq80/T1Gy+LZNzT/Mb16KD/DMP1Pf"
    "cZnNksw/R53Yt/A1zD+hGL56eNnLP6oxh3pkfcs/OtHMUrQhyz8HGFeiZ8bKP34mGQt+a8o/PX4tMvcQyj9a/tK/"
    "0rbJPyd8al8QXck/afp0v68DyT9bgZKRsKrIPziagYoSUsg/dXEfYtX5xz8jo2jT+KHHP6a1epx8Ssc/FkeWfmDz"
    "xj9c8iE+pJzGP5zxraJHRsY/+YP4dkrwxT9sHfOIrJrFPzVoyKltRcU/wR/jrY3wxD8tzvVsDJzEP9V1A8LpR8Q/"
    "rjFpiyX0wz/u1+iqv6DDP4irtAW4TcM/ZSp8hA77wj8aB3oTw6jCP7deg6LVVsI/NDwYJUYFwj9CfXWSFLTBP2Mt"
    "qOVAY8E/uW6iHcsSwT+6CVI9s8LAP4W/uEv5csA/Kn0GVJ0jwD8sImvLPqm/PxwOUin/C78/S6Wa8ntvvj+P6HZh"
    "tdO9P+WRvbmrOL0/CnQ7SV+evD8VEAto0AS8PzPi8nj/a7s/M/bK6ezTuj+GYuozmTy6PxlbndwEprk/q6CkdTAQ"
    "uT9SKL+dHHu4P9bvPgHK5rc/dhGqWjlTtz9MSmlza8C2PxhNhSRhLrY/pGZ0VxudtT+uK/oGmwy1PxMiG0DhfLQ/"
    "hpomI+/tsz9wPtnkxV+zPxExm89m0rI/kQ3dRNNFsj99iZe+DLqxP50X8tAUL7E/JZYVLO2ksD+X5DCelxuwPzVu"
    "bCssJq8/gVGyR9UWrj9i8a3+LgmtPywqKA8+/as/cF84kAfzqj9jVSn5kOqpP6u1aCrg46g/Hievd/vepz9k0Jiz"
    "6dumP9St8jyy2qU/XScRDl3bpD/L7pjO8t2jP5f0Peh84qI/vGofnwXpoT8RgJYumPGgP8SlGNeB+J8/dYyC2xoS"
    "nj8aCc2DGTCcP/jrIk6fUpo/CsEAttF5mD+Cvwv02qWWP2Sw+/Lq1pQ/E16rjTgNkz8SMGA0A0mRP0ndck8qFY8/"
    "rI9PJ42kiz94pI0NBEGIP+DPGkKW64Q/ki+VKZKlgT83aOz4YOF8P124DNmonnY//bGwAx+KcD9nsMFDn19lPw/3"
    "ubYFplQ/"
)
_RAW_TABLES = binascii.a2b_base64(_TABLES_BASE64)
_TABLES = (np.frombuffer(_RAW_TABLES, "<u8", 256, 0),     # ki
           np.frombuffer(_RAW_TABLES, "<f8", 256, 2048),  # wi
           np.frombuffer(_RAW_TABLES, "<f8", 256, 4096))  # fi
# the base layer's right edge r, where the tail starts, and 1 / r
_R = 3.6541528853610087963519472518
_INV_R = 0.27366123732975827203338247596
_TWO_M53 = 1.0 / 9007199254740992.0  # a word's top 53 bits to a uniform in [0, 1)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product ``m * x``, from 32-bit halves."""
    m_lo, m_hi, s32 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32), np.uint64(32)
    x_lo, x_hi = x & _LO32, x >> s32
    lh = x_lo * m_hi
    # below 2**64: (2**32 - 1)**2 + 2 (2**32 - 1) = 2**64 - 1
    mid = x_hi * m_lo + ((x_lo * m_lo) >> s32) + (lh & _LO32)
    return x_hi * m_hi + (lh >> s32) + (mid >> s32), x * np.uint64(m)


def _philox(k0, k1, c0, c3) -> np.ndarray:
    """Philox4x64-10 blocks of counters ``(c0, 0, 0, c3)`` under keys ``(k0, k1)``.

    The uint64 arguments broadcast; the result has their shape plus a last
    axis of 4 words.  numpy's Philox bumps the counter before it fills an
    empty buffer, so a stream keyed ``(seed, member)`` at counter
    ``(0, 0, 0, step)`` yields the blocks of ``c0 = 1, 2, ...`` with
    ``c3 = step``.  The counter words broadcast up as the rounds mix them.
    """
    c1 = c2 = np.uint64(0)
    with np.errstate(over="ignore"):
        for rnd in range(10):
            if rnd:
                k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)


def _philox_block(k0: int, k1: int, c0: int, c3: int) -> list[int]:
    """One block of :func:`_philox` in Python integers, for a row's few blocks.

    Up to about 32 blocks, Python integers are faster than one numpy call.
    """
    c1 = c2 = 0
    w0, w1 = _PHILOX_W
    for rnd in range(10):
        if rnd:
            k0, k1 = (k0 + w0) & _U64, (k1 + w1) & _U64
        p0, p1 = _PHILOX_M[0] * c0, _PHILOX_M[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _U64, (p0 >> 64) ^ c3 ^ k1, p0 & _U64
    return [c0, c1, c2, c3]


def _decode(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each word's normal on the ziggurat's first try, and whether it is kept then.

    numpy's normal from a word is ``rabs * wi[idx]``, negated if bit 8 is
    set, with ``idx`` the low 8 bits and ``rabs`` the 52 bits above bit 8;
    it is kept at once iff ``rabs < ki[idx]``, about 98.5% of the time.
    """
    ki, wi, _ = _TABLES
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & _MANTISSA
    normals = rabs * wi[idx]
    np.negative(normals, out=normals, where=(words & np.uint64(0x100)) != 0)
    return normals, rabs < ki[idx]


def _retry(words: np.ndarray, i: int, x: float) -> tuple[float | None, int] | None:
    """numpy's ziggurat on from word ``i``, which it did not keep at once as ``x``.

    As numpy's ``random_standard_normal`` does, with the libm calls it
    makes: a word of layer 0 draws from the tail beyond ``r`` with pairs of
    uniforms from the words after it; a word of any other layer is kept if
    the uniform of the next word puts it under the density in its wedge.
    Returns the normal (None if the word is dropped) and the index of the
    first unread word, or None if ``words`` ends before the test does.
    """
    fi = _TABLES[2]
    word = int(words[i])
    idx = word & 0xFF
    if idx == 0:
        for j in range(i + 2, len(words), 2):
            xx = -_INV_R * math.log1p(-((int(words[j - 1]) >> 11) * _TWO_M53))
            yy = -math.log1p(-((int(words[j]) >> 11) * _TWO_M53))
            if yy + yy > xx * xx:  # the sign is bit 8 of rabs
                return (-(_R + xx) if (word >> 17) & 1 else _R + xx), j + 1
        return None
    if i + 1 == len(words):
        return None
    u = (int(words[i + 1]) >> 11) * _TWO_M53
    kept = (fi[idx - 1] - fi[idx]) * u + fi[idx] < math.exp(-0.5 * x * x)
    return (x if kept else None), i + 2


def _philox_normals(seed: int, member: int, step: int, count: int) -> np.ndarray:
    """numpy's ``standard_normal(count)`` from Philox keyed ``(seed, member)``, bit for bit.

    The generator starts at counter ``(0, 0, 0, step)``.  Its words are
    drawn and decoded a batch of blocks at a time as arrays; only the words
    that the ziggurat does not keep at once go on through :func:`_retry`,
    one Python step each.
    """
    key, step = (seed & _U64, member & _U64), step & _U64
    out, done, block = np.empty(count), 0, 1
    words = np.empty(0, dtype=np.uint64)  # drawn and not yet read
    while done < count:
        # at most 2**14 blocks a batch, which keeps numpy's temporaries in cache
        n_blocks = min(-(-(count - done) // 4), 1 << 14)
        if n_blocks <= 32:
            fresh = [w for c in range(block, block + n_blocks)
                     for w in _philox_block(*key, c, step)]
        else:
            fresh = _philox(*(np.uint64(k) for k in key),
                            np.arange(block, block + n_blocks, dtype=np.uint64), np.uint64(step))
        words = np.concatenate([words, np.asarray(fresh, dtype=np.uint64).ravel()])
        block += n_blocks
        normals, kept = _decode(words)
        end, read = len(words), 0
        for r in np.flatnonzero(~kept).tolist():
            if r < read:  # a uniform of the last retry
                continue
            retry = _retry(words, r, float(normals[r]))
            if retry is None:  # draw more blocks and retry word r
                end = r
                break
            value, read = retry
            kept[r + 1:read] = False
            if value is not None:
                kept[r], normals[r] = True, value
        got = normals[:end][kept[:end]][:count - done]
        out[done:done + len(got)] = got
        done += len(got)
        words = words[end:]
    return out


def _table(seed: int, members, modes: int, dt: float, n_steps: int) -> np.ndarray:
    """``(len(members), n_steps, modes)`` increments of the paths ``(seed, member)``.

    Row ``(m, s)`` equals ``_philox_normals(seed, m, s, modes) * sqrt(dt)``
    bit for bit.  Every row's first Philox block is computed in one pass,
    and a row whose words numpy's ziggurat keeps at once is decoded from
    them; any other row, and every row with more than 4 modes, is drawn by
    :meth:`WienerPath.increments` itself.
    """
    keys = np.array([m & _U64 for m in members], dtype=np.uint64)
    out = np.zeros((len(keys), n_steps, modes))
    if dt == 0.0 or modes == 0 or n_steps == 0:
        return out
    slow = np.ones(out.shape[:2], dtype=bool)
    if modes <= 4:
        words = _philox(np.uint64(seed & _U64), keys[:, None], np.uint64(1),
                        np.arange(n_steps, dtype=np.uint64))
        normals, kept = _decode(words[..., :modes])
        out = normals * np.sqrt(dt)
        slow = ~np.all(kept, axis=-1)
    for m, s in zip(*np.nonzero(slow)):
        out[m, s] = WienerPath(seed, members[m], modes, dt).increments(int(s))
    return out


@dataclass(frozen=True)
class WienerPath:
    """Counter-based Brownian increment stream for one ensemble member.

    ``increments(step)`` returns the K independent ``N(0, dt)`` draws for
    that step, deterministically from ``(seed, member, step)``; ``table``
    gives the same rows for a whole run at once.
    """

    seed: int
    member: int
    modes: int
    dt: float

    def increments(self, step: int) -> np.ndarray:
        if self.dt == 0.0 or self.modes == 0:
            return np.zeros(self.modes)
        return _philox_normals(self.seed, self.member, step, self.modes) * np.sqrt(self.dt)

    def table(self, n_steps: int) -> np.ndarray:
        """Increments of steps ``0 .. n_steps - 1``, one ``(modes,)`` row each."""
        return _table(self.seed, [self.member], self.modes, self.dt, n_steps)[0]


def member_tables(seed: int, members: int, modes: int, dt: float,
                  n_steps: int) -> np.ndarray:
    """The ``(members, n_steps, modes)`` increments of an ensemble's paths.

    Member ``m`` rides the path ``WienerPath(seed, m, modes, dt)``.
    """
    return _table(seed, range(members), modes, dt, n_steps)


def coarsen(table: np.ndarray, n_steps: int) -> np.ndarray:
    """Sum consecutive rows of an increment table down to ``n_steps`` rows.

    Row ``i`` is ``table[i * agg] + ... + table[(i + 1) * agg - 1]`` with
    ``agg`` the table rows per coarse row, summed in step order from zero, so
    a coarse step is driven by exactly the fine Brownian path it spans.  A
    member-stacked ``(M, n, K)`` table is coarsened along its step axis.
    """
    rows = table.shape[-2]
    if n_steps < 1 or rows % n_steps != 0:
        raise NoiseError(f"n_steps {n_steps} must divide the {rows} table rows")
    agg = rows // n_steps
    out = np.zeros((*table.shape[:-2], n_steps, table.shape[-1]))
    for j in range(agg):
        out += table[..., j::agg, :]
    return out


# --------------------------------------------------------------------------
# statistical audits
# --------------------------------------------------------------------------


def lipschitz_audit(model: NoiseModel, grid, n_pairs: int = 10_000, seed: int = 0) -> dict:
    """Sampled check of ``|G_k(r,q) - G_k(r',q')| <= alpha_k (|r-r'| + |q-q'|)``."""
    rng = np.random.default_rng(seed)
    alphas = [abs(k) + abs(l) for k, l in zip(model.K, model.L)]
    shape = grid.sizes
    worst = 0.0
    violations = 0
    for _ in range(max(1, n_pairs // grid.n_cells)):
        rho1 = rng.uniform(0.0, 3.0, shape)
        rho2 = rng.uniform(0.0, 3.0, shape)
        m1 = rng.normal(0.0, 1.5, (grid.dim, *shape))
        m2 = rng.normal(0.0, 1.5, (grid.dim, *shape))
        for mode in range(model.modes):
            g1 = model.apply_mode(mode, grid, rho1, m1)
            g2 = model.apply_mode(mode, grid, rho2, m2)
            lhs = np.sqrt(np.sum((g1 - g2) ** 2, axis=0))
            rhs = alphas[mode] * (np.abs(rho1 - rho2) + np.sqrt(np.sum((m1 - m2) ** 2, axis=0)))
            excess = lhs - rhs
            worst = max(worst, float(np.max(excess)))
            violations += int(np.count_nonzero(excess > 1e-12 * (1.0 + rhs)))
    zero = 0.0
    for mode in range(model.modes):
        z = model.apply_mode(mode, grid, np.zeros(shape), np.zeros((grid.dim, *shape)))
        zero = max(zero, float(np.max(np.abs(z))))
    return {"max_excess": worst, "violations": violations, "zero_at_zero": zero,
            "pass": violations == 0 and zero == 0.0}


def domination_audit(model: NoiseModel, grid, n_states: int = 32, seed: int = 0) -> dict:
    """Check ``sum_k |G_k|^2 / rho <= c (rho + |m|^2 / rho)`` on random states.

    The sharp constant is ``c = 2 sum(K_k^2 + L_k^2)``.
    """
    rng = np.random.default_rng(seed)
    c = 2.0 * float(sum(k * k + l * l for k, l in zip(model.K, model.L)))
    worst = 0.0
    for _ in range(n_states):
        rho = rng.uniform(0.05, 3.0, grid.sizes)
        mom = rng.normal(0.0, 1.5, (grid.dim, *grid.sizes))
        lhs = model.ito_density(grid, rho, mom / rho)
        rhs = c * (rho + np.sum(mom * mom, axis=0) / rho)
        with np.errstate(invalid="ignore"):
            ratio = np.where(rhs > 0, lhs / rhs, 0.0)
        worst = max(worst, float(np.max(ratio)))
    return {"constant": c, "max_ratio": worst, "pass": worst <= 1.0 + 1e-9}
